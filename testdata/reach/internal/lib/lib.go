// Package lib holds one declaration per census rule.
package lib

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

// Config.Size is written only through &cfg.Size.
type Config struct{ Size int }

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
