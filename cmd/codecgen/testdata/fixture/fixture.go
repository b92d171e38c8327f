// Package fixture holds the message types cmd/codecgen's golden test
// generates for: one of each shape the wire emitter (Outer) and the JSON
// emitter (Page) treat differently. Its
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

// Kind is a named string type: generated JSON converts through it.
type Kind string

// Row is a nested same-package struct, reached only through Page.
type Row struct {
	Name string `json:"name"`
	Tags []string
	Rank int32
}

// Page is the JSON root: a renamed key, a named string, a bool, narrow and
// wide integers of both signs, a string slice, a slice of structs, a nested
// struct and an empty struct.
type Page struct {
	ID      string `json:"id"`
	Kind    Kind
	Draft   bool
	Level   int8
	Created int64
	Port    uint16
	Hash    uint64
	Labels  []string
	Rows    []Row
	Top     Row
	Nothing Empty
	skipped int // unexported: not in the JSON
}

// Empty has no fields: {} both ways.
type Empty struct{}
