// Package lib holds one declaration per census rule.
package lib

import "sync/atomic"

// Namer is how Describe reaches Named.Name.
type Namer interface{ Name() string }

// Named.Name is called only through Namer: reached by satisfying it.
type Named struct{}

func (Named) Name() string { return "named" }

// Describe calls Name through the interface.
func Describe(n Namer) string { return n.Name() }

// Box.Get is called only on Box[int]: reached through the instantiation.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Config.Size is written only through &cfg.Size (and defaulted); Width
// only by a clamp, which is a write; Depth and Name only ever get their
// defaults, which are not settings: both reported.
type Config struct {
	Size, Width, Depth int
	Name               string
}

// Normalize fills in Config's defaults and clamps Width.
func Normalize(c Config) Config {
	if c.Size <= 0 {
		c.Size = 1
	}
	if c.Width > 80 {
		c.Width = 80
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Name == "" {
		c.Name = "lib"
	}
	return c
}

// PairConfig is only ever built positionally: both fields are written.
type PairConfig struct{ A, B int }

// Dead is reached by nothing but itself: the census reports it.
func Dead(n int) int {
	if n > 0 {
		return Dead(n - 1)
	}
	return 0
}

// TestOnly is reached only by a test: the census reports it.
func TestOnly() int { return 1 }

// Counter holds one unexported field per state rule.
type Counter struct {
	hits  atomic.Int64 // only ever updated as a statement: reported
	seq   atomic.Int64 // its Add's result is used: read
	n     int          // written and read
	last  int          // read only by a test: reported
	label string       // set only by a composite literal: reported
}

// NewCounter is the only write to label.
func NewCounter() *Counter { return &Counter{label: "counter"} }

// Hit updates every field but label, and returns seq's new value.
func (c *Counter) Hit() int64 {
	c.hits.Add(1)
	c.n++
	c.last = c.n
	return c.seq.Add(1)
}
