package kv

import "time"

// Stats mirrors the memcached counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Sets      int64
	Evictions int64
	Expired   int64
	Items     int64
	Bytes     int64
}

// Stripes returns the stripe count the cache was built with.
func (c *Cache) Stripes() int { return len(c.shards) }

// CompareAndSwap stores value only if the entry's current version matches.
// It reports whether the swap happened; a missing key never matches.
func (c *Cache) CompareAndSwap(key string, value []byte, ttl time.Duration, version uint64) bool {
	return c.set(key, value, ttl, version, true)
}

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

// Stats returns a snapshot of the cache counters, folding the per-stripe
// counters under each stripe's lock.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Sets += s.sets
		st.Evictions += s.evictions
		st.Expired += s.expired
		st.Items += int64(len(s.items))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// Flush removes every entry.
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = make(map[string]*entry)
		s.head, s.tail, s.bytes = nil, nil, 0
		s.mu.Unlock()
	}
}
