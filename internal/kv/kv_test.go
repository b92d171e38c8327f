package kv

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

func TestSetGet(t *testing.T) {
	c := New(1 << 20)
	c.Set("k", []byte("v"), 0)
	v, ver, ok := c.Get("k")
	if !ok || string(v) != "v" || ver != 1 {
		t.Fatalf("Get = %q, %d, %v", v, ver, ok)
	}
	if _, _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	c := New(1 << 20)
	c.Set("k", []byte("v1"), 0)
	c.Set("k", []byte("v2"), 0)
	v, ver, _ := c.Get("k")
	if string(v) != "v2" || ver != 2 {
		t.Fatalf("Get = %q, %d", v, ver)
	}
}

func TestTTLExpiry(t *testing.T) {
	vtime.Run(t, func() {
		c := New(1 << 20)
		c.Set("k", []byte("v"), time.Second)
		vtime.Advance(time.Second - time.Nanosecond)
		if _, _, ok := c.Get("k"); !ok {
			t.Fatal("key should be present until its TTL has run")
		}
		vtime.Advance(time.Nanosecond)
		if _, _, ok := c.Get("k"); ok {
			t.Fatal("expired key should be gone")
		}
		if st := c.Stats(); st.Expired != 1 {
			t.Fatalf("Expired = %d", st.Expired)
		}
	})
}

func TestDelete(t *testing.T) {
	c := New(1 << 20)
	c.Set("k", []byte("v"), 0)
	if !c.Delete("k") {
		t.Fatal("Delete existing = false")
	}
	if c.Delete("k") {
		t.Fatal("Delete missing = true")
	}
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("deleted key present")
	}
}

func TestCompareAndSwap(t *testing.T) {
	c := New(1 << 20)
	c.Set("k", []byte("v1"), 0)
	_, ver, _ := c.Get("k")
	if !c.CompareAndSwap("k", []byte("v2"), 0, ver) {
		t.Fatal("CAS with correct version failed")
	}
	if c.CompareAndSwap("k", []byte("v3"), 0, ver) {
		t.Fatal("CAS with stale version succeeded")
	}
	if c.CompareAndSwap("missing", []byte("x"), 0, 1) {
		t.Fatal("CAS on missing key succeeded")
	}
	v, _, _ := c.Get("k")
	if string(v) != "v2" {
		t.Fatalf("value = %q", v)
	}
}

func TestIncr(t *testing.T) {
	c := New(1 << 20)
	if got := c.Incr("n", 5); got != 5 {
		t.Fatalf("Incr new = %d", got)
	}
	if got := c.Incr("n", -2); got != 3 {
		t.Fatalf("Incr = %d", got)
	}
	v, _, _ := c.Get("n")
	if string(v) != "3" {
		t.Fatalf("stored = %q", v)
	}
}

// testStripes pins the stripe count for tests whose byte-budget math
// depends on maxBytes/stripes; the default scales with GOMAXPROCS.
const testStripes = 16

func TestLRUEviction(t *testing.T) {
	// One shard gets maxBytes/stripes; craft keys for a single shard by
	// brute force so eviction order is observable.
	c := newCache(testStripes*100, testStripes) // 100 bytes per shard
	shardOf := func(k string) *shard { return c.shard(k) }
	target := shardOf("seed")
	var keys []string
	for i := 0; len(keys) < 5; i++ {
		k := fmt.Sprintf("key-%d", i)
		if shardOf(k) == target {
			keys = append(keys, k)
		}
	}
	val := make([]byte, 30)
	for _, k := range keys[:3] {
		c.Set(k, val, 0) // 90 bytes: fits
	}
	// Touch keys[0] so keys[1] is LRU.
	c.Get(keys[0])
	c.Set(keys[3], val, 0) // 120 bytes: evicts LRU (keys[1])
	if _, _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestStatsAndFlush(t *testing.T) {
	c := New(1 << 20)
	c.Set("a", []byte("xy"), 0)
	c.Get("a")
	c.Get("b")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Sets != 1 || st.Items != 1 || st.Bytes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	c.Flush()
	if c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatal("flush incomplete")
	}
}

// Property: cache byte accounting equals the sum of live values, and never
// exceeds capacity after any operation sequence.
func TestCacheInvariantsProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value []byte
	}
	const perShardCap = 256
	f := func(ops []op) bool {
		c := newCache(testStripes*perShardCap, testStripes)
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if len(o.Value) > perShardCap {
				o.Value = o.Value[:perShardCap]
			}
			switch o.Kind % 3 {
			case 0:
				c.Set(key, o.Value, 0)
			case 1:
				c.Get(key)
			case 2:
				c.Delete(key)
			}
			for i := range c.shards {
				s := &c.shards[i]
				s.mu.Lock()
				var sum int64
				count := 0
				for e := s.head; e != nil; e = e.next {
					sum += int64(len(e.value))
					count++
				}
				ok := sum == s.bytes && count == len(s.items) && s.bytes <= s.maxBytes
				s.mu.Unlock()
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", rng.IntN(64))
				switch rng.IntN(4) {
				case 0:
					c.Set(key, []byte("value"), 0)
				case 1:
					c.Get(key)
				case 2:
					c.Delete(key)
				case 3:
					c.Incr("ctr-"+key, 1)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestIncrConcurrentExact(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Incr("n", 1)
			}
		}()
	}
	wg.Wait()
	v, _, _ := c.Get("n")
	if string(v) != "10000" {
		t.Fatalf("counter = %q, want 10000", v)
	}
}

// Regression: a value larger than the shard budget used to be admitted and
// pinned above maxBytes forever — the eviction loop's `s.tail != e` guard
// never evicts the entry being written — after first evicting every other
// resident entry in the shard trying to make room that cannot exist. It
// must be rejected outright, with byte accounting kept honest.
func TestOversizedValueRejected(t *testing.T) {
	c := newCache(testStripes*100, testStripes) // 100 bytes per shard
	// Seed the oversized key's shard with a small sibling that must survive.
	target := c.shard("big")
	var sibling string
	for i := 0; ; i++ {
		k := fmt.Sprintf("sib-%d", i)
		if c.shard(k) == target {
			sibling = k
			break
		}
	}
	c.Set(sibling, make([]byte, 10), 0)

	c.Set("big", make([]byte, 101), 0) // exceeds the 100-byte shard budget
	if _, _, ok := c.Get("big"); ok {
		t.Fatal("oversized value was admitted")
	}
	if _, _, ok := c.Get(sibling); !ok {
		t.Fatal("oversized set evicted an unrelated resident entry")
	}
	st := c.Stats()
	if st.Bytes != 10 {
		t.Fatalf("Bytes = %d, want 10", st.Bytes)
	}
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1 (the rejected value)", st.Evictions)
	}

	// Overwriting an existing key with an oversized value drops the stale
	// small version instead of serving it forever.
	c.Set(sibling, make([]byte, 500), 0)
	if _, _, ok := c.Get(sibling); ok {
		t.Fatal("stale value served after oversized overwrite")
	}
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("Bytes = %d, want 0", got)
	}

	// The shard honors its budget for all later traffic.
	for i := 0; i < 32; i++ {
		c.Set(fmt.Sprintf("after-%d", i), make([]byte, 60), 0)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		over := s.bytes > s.maxBytes
		s.mu.Unlock()
		if over {
			t.Fatalf("shard %d above budget after oversized rejects", i)
		}
	}
}

func TestStripeConfiguration(t *testing.T) {
	// Default scales with GOMAXPROCS, clamped to [16, 256], power of two.
	def := New(1 << 20)
	n := def.Stripes()
	if n < 16 || n > 256 || n&(n-1) != 0 {
		t.Fatalf("default stripes = %d, want power of two in [16, 256]", n)
	}
	// A requested count rounds up to a power of two and caps at 256.
	for _, tc := range []struct{ req, want int }{
		{16, 16}, {17, 32}, {100, 128}, {256, 256}, {1000, 256},
	} {
		c := newCache(1<<20, tc.req)
		if got := c.Stripes(); got != tc.want {
			t.Fatalf("newCache(_, %d) = %d stripes, want %d", tc.req, got, tc.want)
		}
	}
	// The per-stripe budget splits maxBytes evenly.
	c := newCache(32<<10, 32)
	for i := range c.shards {
		if c.shards[i].maxBytes != 1<<10 {
			t.Fatalf("stripe %d budget = %d, want %d", i, c.shards[i].maxBytes, 1<<10)
		}
	}
}

// The per-stripe counters must fold to exact totals under concurrency —
// each increment happens under the stripe lock, so nothing can be lost.
func TestStatsConcurrentExact(t *testing.T) {
	c := New(64 << 20)
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				c.Set(key, []byte("v"), 0)
				c.Get(key)          // hit
				c.Get(key + "-nil") // miss
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	const want = goroutines * perG
	if st.Sets != want || st.Hits != want || st.Misses != want {
		t.Fatalf("stats = %+v, want Sets=Hits=Misses=%d", st, want)
	}
}

func TestRPCService(t *testing.T) {
	n := rpc.NewMem()
	srv := rpc.NewServer("memcached")
	RegisterService(srv, New(1<<20))
	addr, err := srv.Start(n, "memcached:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := rpc.NewClient(n, "memcached", addr)
	defer c.Close()
	ctx := context.Background()

	if err := c.Call(ctx, "Set", SetReq{Key: "k", Value: []byte("v")}, nil); err != nil {
		t.Fatal(err)
	}
	var got GetResp
	if err := c.Call(ctx, "Get", GetReq{Key: "k"}, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Found || string(got.Value) != "v" {
		t.Fatalf("Get = %+v", got)
	}
	var ir IncrResp
	if err := c.Call(ctx, "Incr", IncrReq{Key: "c", Delta: 3}, &ir); err != nil || ir.Value != 3 {
		t.Fatalf("Incr = %+v, %v", ir, err)
	}
	var dr DeleteResp
	if err := c.Call(ctx, "Delete", DeleteReq{Key: "k"}, &dr); err != nil || !dr.Existed {
		t.Fatalf("Delete = %+v, %v", dr, err)
	}
	if err := c.Call(ctx, "Get", GetReq{Key: "k"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.Found {
		t.Fatal("deleted key found over RPC")
	}
}

func BenchmarkCacheSet(b *testing.B) {
	c := New(64 << 20)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Set(fmt.Sprintf("key-%d", i%4096), val, 0)
			i++
		}
	})
}
