package kv

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

func TestSetGet(t *testing.T) {
	c := New(1 << 20)
	c.Set("k", []byte("v"), 0)
	v, ok := c.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestOverwriteReplacesEntry(t *testing.T) {
	c := New(1 << 20)
	c.Set("k", []byte("v1"), 0)
	c.Set("k", []byte("v2"), 0)
	if v, _ := c.Get("k"); string(v) != "v2" || c.Len() != 1 || c.Bytes() != 2 {
		t.Fatalf("after overwrite: Get = %q, Len = %d, Bytes = %d", v, c.Len(), c.Bytes())
	}
}

func TestTTLExpiry(t *testing.T) {
	vtime.Run(t, func() {
		c := New(1 << 20)
		c.Set("k", []byte("v"), time.Second)
		vtime.Advance(time.Second - time.Nanosecond)
		if _, ok := c.Get("k"); !ok {
			t.Fatal("key should be present until its TTL has run")
		}
		vtime.Advance(time.Nanosecond)
		if _, ok := c.Get("k"); ok {
			t.Fatal("expired key should be gone")
		}
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("expired entry not reaped: Len = %d, Bytes = %d", c.Len(), c.Bytes())
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
	if _, ok := c.Get("k"); ok {
		t.Fatal("deleted key present")
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
	v, _ := c.Get("n")
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
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 3 || c.Bytes() != 90 {
		t.Fatalf("after one eviction: Len = %d, Bytes = %d, want 3, 90", c.Len(), c.Bytes())
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
	v, _ := c.Get("n")
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
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized value was admitted")
	}
	if _, ok := c.Get(sibling); !ok {
		t.Fatal("oversized set evicted an unrelated resident entry")
	}
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("Len = %d, Bytes = %d, want 1, 10 (the sibling only)", c.Len(), c.Bytes())
	}

	// Overwriting an existing key with an oversized value drops the stale
	// small version instead of serving it forever.
	c.Set(sibling, make([]byte, 500), 0)
	if _, ok := c.Get(sibling); ok {
		t.Fatal("stale value served after oversized overwrite")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Len = %d, Bytes = %d, want 0, 0", c.Len(), c.Bytes())
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

	// MGet writes its reply in place; the bytes are the typed MGetResp's.
	if err := c.Call(ctx, "Set", SetReq{Key: "e", Value: []byte{}}, nil); err != nil {
		t.Fatal(err)
	}
	req, err := codec.Marshal(MGetReq{Keys: []string{"c", "k", "e"}})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.CallRaw(ctx, "MGet", req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Marshal(MGetResp{Values: [][]byte{[]byte("3"), nil, {}}, Found: []bool{true, false, true}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, want) {
		t.Fatalf("MGet reply = %x, want the MGetResp encoding %x", reply, want)
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
