package rpc

import _ "unsafe" // for go:linkname

// procID returns the index of the P the caller runs on, which ConnStack keys
// its idle lists by: a hint, as the goroutine may move as soon as it returns.
// The runtime keeps procPin and procUnpin linkable on purpose
// (go.dev/issue/67401). sync.Pool, the only per-P structure the standard
// library exports, drops what it holds at every GC: for connections, a leak.
func procID() int {
	p := procPin()
	procUnpin()
	return p
}

//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()
