// Package shard implements the sharded stateful tier: a consistent-hash
// ring with virtual nodes for deterministic key→shard routing, and a
// registry-driven Router that groups the replicas of one service into
// replica sets per shard. The paper's §8 tail-at-scale results (Figs 21–22)
// hinge on exactly this regime — request skew concentrating on one
// stateful backend, or a single slow server dragging end-to-end p99 — and
// a single-replica store can reach neither. With the ring, every kv and
// docstore tier can run as N shards × R replicas behind the same service
// name, routed per key, with read-one/write-all replica sets (read-repair
// healing divergence) layered on top by svcutil.KV and svcutil.DB.
package shard

import (
	"math/bits"
	"sort"
	"strconv"
)

// MetaShard is the registry instance-metadata key carrying a replica's
// shard index. core.App.StartRPCShard stamps it and Router groups by it;
// replicas registered without it are indistinguishable to the ring and are
// grouped under one catch-all shard.
const MetaShard = "shard"

// DefaultVnodes is the virtual-node count per member when a Ring or Router
// is built without an explicit setting. 128 vnodes bound the per-shard load
// imbalance to within ±15% across 8 shards (pinned by TestRingBalanceGuard).
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over named members (shard
// labels). Each member is projected onto the hash circle at vnodes points;
// a key is owned by the member whose point follows the key's hash. Removing
// a member remaps only the keys that member owned — the property that lets
// the ring re-form cheaply when a health lease evicts a shard.
type Ring struct {
	points  []ringPoint
	members []string
	// first[b] is the index of the first point in or past bucket b, the
	// hashes whose top bits read b. There are more buckets than points, so
	// Owner steps past about one point from there, with no binary search.
	first []uint32
	shift uint // a hash's bucket is hash >> shift
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with the given virtual-node count per
// member (<=0 uses DefaultVnodes). Construction is deterministic: the same
// member set yields the same ring regardless of input order.
func NewRing(vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	r := &Ring{
		points:  make([]ringPoint, 0, vnodes*len(sorted)),
		members: sorted,
	}
	for _, m := range sorted {
		base := hash64(m)
		for v := 0; v < vnodes; v++ {
			// Each vnode's position derives from the member hash and the
			// vnode index through one extra mix round, so vnodes of one
			// member spread independently instead of clustering.
			r.points = append(r.points, ringPoint{
				hash:   mix64(base + uint64(v)*0x9e3779b97f4a7c15),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	n := bits.Len(uint(len(r.points)))
	r.first, r.shift = make([]uint32, 1<<n), uint(64-n)
	i := 0
	for b := range r.first {
		for i < len(r.points) && r.points[i].hash>>r.shift < uint64(b) {
			i++
		}
		r.first[b] = uint32(i)
	}
	return r
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := int(r.first[h>>r.shift])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		i = 0 // wrap past the last point to the first
	}
	return r.points[i].member
}

// Labels returns the canonical shard labels "0".."n-1" for an n-shard tier.
func Labels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

// hash64 is FNV-1a finished with a splitmix64 mix round. Plain FNV-1a over
// short numeric-ish strings ("0", "1", "key-42") leaves too much structure
// in the low bits for an evenly loaded ring; the finalizer scrambles it.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
