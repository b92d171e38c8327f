package kv

// Stripes returns the stripe count the cache was built with.
func (c *Cache) Stripes() int { return len(c.shards) }

// Len returns the total number of cached items (including not-yet-reaped
// expired entries).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the value bytes the cache holds, summed under each stripe's
// lock.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
