//go:build race

package mq

// raceEnabled reports whether the race detector is instrumenting this
// build; its allocation overhead invalidates pinned alloc budgets.
const raceEnabled = true
