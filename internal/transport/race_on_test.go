//go:build race

package transport

// raceEnabled reports whether the race detector is instrumenting this
// build; it makes sync.Pool drop a random share of what is put in it.
const raceEnabled = true
