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
	return len(c.docs)
}

// FindRange returns documents whose numeric field lies in [min, max],
// sorted descending by the field (newest-first for timestamp fields), up to
// limit (<=0 means all).
func (c *Collection) FindRange(field string, min, max int64, limit int) []Doc {
	return decodeAll(c.appendRange(nil, field, min, max, limit))
}
