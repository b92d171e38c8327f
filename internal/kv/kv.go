// Package kv implements the suite's in-memory lookaside cache — the role
// memcached plays in every DeathStarBench backend. It is a sharded LRU
// cache with TTL expiry and counters, and it can be exposed as an RPC
// microservice (see RegisterService) so cache tiers appear in dependency
// graphs and traces exactly like the paper's memcached instances.
package kv

import (
	"runtime"
	"strings"
	"sync"
	"time"
)

// minStripes and maxStripes bound the lock-stripe count. The default scales
// with GOMAXPROCS — a cache serving a 64-way box with the 16 stripes that
// suited a 4-way one serializes on stripe locks long before it saturates
// memory bandwidth — and stays a power of two for cheap masking.
const (
	minStripes = 16
	maxStripes = 256
)

// defaultStripes picks the stripe count for this machine: 4 stripes per
// logical CPU (so uniformly random keys rarely collide on a lock even with
// every core in the cache), clamped to [minStripes, maxStripes].
func defaultStripes() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < minStripes {
		n = minStripes
	}
	if n > maxStripes {
		n = maxStripes
	}
	return n
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// entry is one cached item, a node in its shard's intrusive LRU list.
type entry struct {
	key        string
	value      []byte
	expires    time.Time // zero = no expiry
	prev, next *entry
}

// Cache is a lock-striped LRU cache bounded by total value bytes. The
// stripe count is fixed at construction and scales with GOMAXPROCS.
type Cache struct {
	shards []shard
	mask   uint32
}

type shard struct {
	mu       sync.Mutex
	items    map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	bytes    int64
	maxBytes int64
}

// New creates a cache bounded to maxBytes of value data (split evenly
// across stripes). maxBytes <= 0 means a generous default of 64 MiB.
func New(maxBytes int64) *Cache { return newCache(maxBytes, defaultStripes()) }

// newCache is New with the stripe count given, rounded up to a power of two
// and capped at maxStripes.
func newCache(maxBytes int64, stripes int) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	n := min(nextPow2(stripes), maxStripes)
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*entry)
		c.shards[i].maxBytes = maxBytes / int64(n)
	}
	return c
}

// fnv1a hashes the key for shard selection.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the cached value. The returned slice is shared; callers must
// not modify it.
func (c *Cache) Get(key string) (value []byte, ok bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.items[key]
	if !exists {
		return nil, false
	}
	if !e.expires.IsZero() && !time.Now().Before(e.expires) {
		s.remove(e)
		return nil, false
	}
	s.touch(e)
	return e.value, true
}

// Set stores value under key with the given TTL (0 = never expires).
// A value larger than its stripe's byte budget (maxBytes/stripes) cannot
// be cached: memcached-style, the set stores nothing, and any previous
// value for the key is removed as stale.
func (c *Cache) Set(key string, value []byte, ttl time.Duration) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.items[key]
	// A value larger than the shard budget can never be admitted: the
	// eviction loop below deliberately refuses to evict the entry being
	// written (s.tail != e), so an oversized value would be pinned above
	// maxBytes forever — and would first evict every other entry in the
	// shard trying to make room that cannot exist. Mirror memcached's
	// "object too large" handling: drop any previous version of the key
	// (it is stale now), and store nothing.
	if int64(len(value)) > s.maxBytes {
		if exists {
			s.remove(e)
		}
		return
	}
	var expires time.Time
	if ttl > 0 {
		expires = time.Now().Add(ttl)
	}
	if exists {
		s.bytes += int64(len(value)) - int64(len(e.value))
		e.value = value
		e.expires = expires
		s.touch(e)
	} else {
		// A key decoded from a request shares its memory with the whole
		// request: the entry keeps a copy of its own.
		key = strings.Clone(key)
		e = &entry{key: key, value: value, expires: expires}
		s.items[key] = e
		s.bytes += int64(len(value))
		s.pushFront(e)
	}
	for s.bytes > s.maxBytes && s.tail != nil && s.tail != e {
		s.remove(s.tail)
	}
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.items[key]
	if !exists {
		return false
	}
	s.remove(e)
	return true
}

// Incr atomically adds delta to the decimal counter stored at key,
// creating it at delta if absent, and returns the new value. The stored
// representation is the decimal string, as in memcached.
func (c *Cache) Incr(key string, delta int64) int64 {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur int64
	e, exists := s.items[key]
	if exists && (e.expires.IsZero() || time.Now().Before(e.expires)) {
		cur = parseInt(e.value)
	}
	cur += delta
	val := appendInt(nil, cur)
	if exists {
		s.bytes += int64(len(val)) - int64(len(e.value))
		e.value = val
		s.touch(e)
	} else {
		key = strings.Clone(key)
		e = &entry{key: key, value: val}
		s.items[key] = e
		s.bytes += int64(len(val))
		s.pushFront(e)
	}
	return cur
}

// --- intrusive LRU list (shard lock held) ---

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.items, e.key)
	s.bytes -= int64(len(e.value))
}

// --- minimal decimal helpers (avoid strconv allocs on the hot path) ---

func parseInt(b []byte) int64 {
	var n int64
	neg := false
	for i, ch := range b {
		if i == 0 && ch == '-' {
			neg = true
			continue
		}
		if ch < '0' || ch > '9' {
			return 0
		}
		n = n*10 + int64(ch-'0')
	}
	if neg {
		return -n
	}
	return n
}

func appendInt(b []byte, n int64) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}
