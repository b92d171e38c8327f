//go:build race

package experiments

// raceEnabled reports whether the race detector is instrumenting this
// build; its slowdown invalidates the wall-clock shape assertions.
const raceEnabled = true
