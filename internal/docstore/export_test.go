package docstore

import (
	"maps"
	"slices"
)

// Collections returns collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Sorted(maps.Keys(s.collections))
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.encs)
}

// All returns every document, ID-sorted.
func (c *Collection) All() []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ns := c.byID()
	out := make([]Doc, len(ns))
	for i, n := range ns {
		out[i] = decode(c.encs[n])
	}
	return out
}
