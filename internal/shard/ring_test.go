package shard

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestRingBalanceGuard pins the distribution the suite's sharded tiers rely
// on: with the default 128 vnodes per member, hashing a large key
// population over 8 shards must load every shard to within ±15% of the
// even share. This is the `make shard-balance` guard — a hash or vnode
// change that skews the ring fails here before it skews an experiment.
func TestRingBalanceGuard(t *testing.T) {
	const (
		shards    = 8
		keys      = 100_000
		tolerance = 0.15
	)
	r := NewRing(DefaultVnodes, Labels(shards))
	counts := make(map[string]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	mean := float64(keys) / float64(shards)
	for _, m := range r.members {
		dev := (float64(counts[m]) - mean) / mean
		t.Logf("shard %s: %d keys (%+.1f%%)", m, counts[m], dev*100)
		if dev > tolerance || dev < -tolerance {
			t.Fatalf("shard %s holds %d of %d keys (%+.1f%%), outside ±%.0f%%",
				m, counts[m], keys, dev*100, tolerance*100)
		}
	}
}

// TestRingDeterministic asserts the same member set yields the same
// ownership regardless of construction order.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(64, []string{"0", "1", "2", "3"})
	b := NewRing(64, []string{"3", "1", "0", "2"})
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner(%s): %q vs %q under reordered construction", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingRemovalOnlyRemapsRemoved asserts the consistent-hashing property
// the eviction path depends on: dropping one member must not move keys
// between surviving members.
func TestRingRemovalOnlyRemapsRemoved(t *testing.T) {
	full := NewRing(DefaultVnodes, Labels(8))
	reduced := NewRing(DefaultVnodes, []string{"0", "1", "2", "3", "4", "5", "6"}) // "7" evicted
	moved := 0
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("key-%d", i)
		before, after := full.Owner(k), reduced.Owner(k)
		if before == after {
			continue
		}
		moved++
		if before != "7" {
			t.Fatalf("key %s moved %s -> %s, but only shard 7 was removed", k, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys remapped after removing a shard; ring is not rebalancing")
	}
}

// TestRingOwnerMatchesSearch holds Owner's bucket table to the binary search
// over the sorted points it replaces: the first point at or past the key's
// hash, wrapping past the last, for random keys on rings of several sizes.
func TestRingOwnerMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, members := range []int{1, 2, 3, 8} {
		r := NewRing(DefaultVnodes, Labels(members))
		for range 10_000 {
			key := make([]byte, 1+rng.IntN(24))
			for i := range key {
				key[i] = byte(rng.Uint32())
			}
			k := string(key)
			h := hash64(k)
			i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
			want := r.points[i%len(r.points)].member
			if got := r.Owner(k); got != want {
				t.Fatalf("%d members: Owner(%q) = %q, the search finds %q", members, k, got, want)
			}
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(8, nil)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	single := NewRing(8, []string{"only"})
	if got := single.Owner("anything"); got != "only" {
		t.Fatalf("single-member owner = %q", got)
	}
}
