// Package fixture holds the message types cmd/codecgen's golden test
// generates for: one of each shape the emitter treats differently. Its
// wire_gen.go is the golden file, and being compiled into the test is what
// proves the emitter's output builds.
package fixture

// Inner is a nested same-package struct, reached only through Outer.
type Inner struct {
	Name  string
	Score float64
}

// Outer has a string-keyed map, an int-keyed map of structs, a nested
// struct, a slice of structs, a byte slice and a pointer.
type Outer struct {
	ID      string
	Labels  map[string]string
	ByRank  map[int32]Inner
	Best    Inner
	Others  []Inner
	Payload []byte
	Parent  *Inner
	skipped int // unexported: not on the wire
}
