package svcutil

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/shard"
)

// This file is the replica-set half of the KV/DB clients: the policies
// that turn the shard router's "which replicas own this key" answer into
// storage semantics. Reads are read-one — take the rotation head, fall
// down the replica list on transport errors — with read-repair: when a
// fallback replica has the value a sibling lacked (a replica revived
// empty, a write that missed one ack), the value is written back
// best-effort so the set reconverges. Writes are write-all with a
// one-ack success floor: a write that lands on any replica is durable for
// readers (they will find it via fallback and repair the rest), while a
// write no replica accepted fails loudly.
//
// Read-repair is deliberately TTL-bounded on the cache tier: repairing a
// key that a concurrent invalidation just deleted from the other replica
// can resurrect a stale entry, so repairs carry repairTTL rather than the
// original (possibly unbounded) TTL and the window closes on its own.

// repairTTL bounds cache entries written by read-repair.
const repairTTL = time.Minute

// ShardStarter is the slice of core.App that boots shard replicas;
// declared here so svcutil does not import the composition root.
type ShardStarter interface {
	StartRPCShard(service string, shard int, register func(*rpc.Server)) (string, error)
}

// StartShardReplicas boots shards×replicas instances of one stateful
// service tier under a single service name. register(s, r) builds the
// registration function for replica r of shard s — each (s, r) pair must
// construct its *own* backing store, since the replicas are independent
// copies converged only by write-all and read-repair. Unlike
// StartReplicas, every instance registers with its shard index as
// instance metadata, which is what lets shard routers reassemble the
// anonymous pool into replica sets. Counts below 1 are raised to 1.
func StartShardReplicas(app ShardStarter, service string, shards, replicas int, register func(shard, replica int) func(*rpc.Server)) error {
	if shards < 1 {
		shards = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			if _, err := app.StartRPCShard(service, s, register(s, r)); err != nil {
				return err
			}
		}
	}
	return nil
}

func noShards(r *shard.Router) error {
	return fmt.Errorf("shard: no live shards of %q", r.Target())
}

// writeAll applies call to every replica, succeeding when at least one
// acks; a total failure returns the first error.
func writeAll(reps []*shard.Replica, call func(*shard.Replica) error) error {
	var firstErr error
	acked := false
	for _, rep := range reps {
		if err := call(rep); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		acked = true
	}
	if !acked {
		return firstErr
	}
	return nil
}

// --- KV (cache tier) ---

func (k KV) shardedGet(ctx context.Context, key string) ([]byte, bool, error) {
	reps := k.Shards.Route(key)
	if len(reps) == 0 {
		return nil, false, noShards(k.Shards)
	}
	var missed []*shard.Replica
	var lastErr error
	for _, rep := range reps {
		var resp kv.GetResp
		if err := rep.Call(ctx, "Get", kv.GetReq{Key: key}, &resp); err != nil {
			lastErr = err
			continue
		}
		if !resp.Found {
			missed = append(missed, rep)
			continue
		}
		for _, m := range missed {
			// Best-effort, TTL-bounded (see the file comment on resurrection).
			m.Call(ctx, "Set", kv.SetReq{Key: key, Value: resp.Value, TTLNs: int64(repairTTL)}, nil) //nolint:errcheck
		}
		return resp.Value, true, nil
	}
	if len(missed) > 0 {
		// At least one replica answered authoritatively: it is a miss.
		return nil, false, nil
	}
	return nil, false, lastErr
}

func (k KV) shardedSet(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	reps := k.Shards.Route(key)
	if len(reps) == 0 {
		return noShards(k.Shards)
	}
	return writeAll(reps, func(rep *shard.Replica) error {
		return rep.Call(ctx, "Set", kv.SetReq{Key: key, Value: value, TTLNs: int64(ttl)}, nil)
	})
}

func (k KV) shardedDelete(ctx context.Context, key string) error {
	reps := k.Shards.Route(key)
	if len(reps) == 0 {
		return noShards(k.Shards)
	}
	return writeAll(reps, func(rep *shard.Replica) error {
		var resp kv.DeleteResp
		return rep.Call(ctx, "Delete", kv.DeleteReq{Key: key}, &resp)
	})
}

// firstAck is writeAll for a call that answers: every replica of key's owner
// group gets req, and the first ack's response is returned.
func firstAck[Resp any](ctx context.Context, r *shard.Router, key, method string, req any) (Resp, error) {
	var first Resp
	reps := r.Route(key)
	if len(reps) == 0 {
		return first, noShards(r)
	}
	got := false
	err := writeAll(reps, func(rep *shard.Replica) error {
		var resp Resp
		if err := rep.Call(ctx, method, req, &resp); err != nil {
			return err
		}
		if !got {
			first, got = resp, true
		}
		return nil
	})
	return first, err
}

// shardedIncr applies the delta to every replica of the owner group (each
// keeps its own copy of the counter) and returns the first acked value.
// A replica that misses a delta diverges until the key expires or is
// rewritten — counters get no read-repair, matching the loose semantics
// cache-side counters already have under eviction.
func (k KV) shardedIncr(ctx context.Context, key string, delta int64) (int64, error) {
	resp, err := firstAck[kv.IncrResp](ctx, k.Shards, key, "Incr", kv.IncrReq{Key: key, Delta: delta})
	return resp.Value, err
}

// MGet fetches a batch of keys in one round trip per backend, returning
// the found subset keyed by key. Single-backend mode issues one MGet RPC;
// sharded mode groups the keys by owning shard and fans one MGet out per
// shard concurrently (with per-shard replica fallback on transport
// errors), so a K-key batch costs at most one call per live shard instead
// of K calls. Batch reads skip read-repair — the point of the batch is
// bounding round trips, and a missed entry is re-fetchable by the caller.
func (k KV) MGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	if k.Shards == nil {
		var resp kv.MGetResp
		if err := k.C.Call(ctx, "MGet", kv.MGetReq{Keys: keys}, &resp); err != nil {
			return nil, err
		}
		for i, key := range keys {
			if i < len(resp.Found) && resp.Found[i] {
				out[key] = resp.Values[i]
			}
		}
		return out, nil
	}
	byShard := make(map[string][]string)
	for _, key := range keys {
		owner := k.Shards.Owner(key)
		byShard[owner] = append(byShard[owner], key)
	}
	labels := make([]string, 0, len(byShard))
	for label := range byShard {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var mu sync.Mutex
	err := Parallel(len(labels), len(labels), func(i int) error {
		shardKeys := byShard[labels[i]]
		reps := k.Shards.GroupReplicas(labels[i])
		if len(reps) == 0 {
			return noShards(k.Shards)
		}
		var resp kv.MGetResp
		var callErr error
		for _, rep := range reps {
			resp = kv.MGetResp{}
			if callErr = rep.Call(ctx, "MGet", kv.MGetReq{Keys: shardKeys}, &resp); callErr == nil {
				break
			}
		}
		if callErr != nil {
			return callErr
		}
		mu.Lock()
		for j, key := range shardKeys {
			if j < len(resp.Found) && resp.Found[j] {
				out[key] = resp.Values[j]
			}
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- DB (document-store tier) ---

func (d DB) shardedPut(ctx context.Context, collection string, doc docstore.Doc) error {
	reps := d.Shards.Route(doc.ID)
	if len(reps) == 0 {
		return noShards(d.Shards)
	}
	return writeAll(reps, func(rep *shard.Replica) error {
		return rep.Call(ctx, "Put", docstore.PutReq{Collection: collection, Doc: doc}, nil)
	})
}

func (d DB) shardedGet(ctx context.Context, collection, id string) (docstore.Doc, bool, error) {
	reps := d.Shards.Route(id)
	if len(reps) == 0 {
		return docstore.Doc{}, false, noShards(d.Shards)
	}
	var missed []*shard.Replica
	var lastErr error
	for _, rep := range reps {
		var resp docstore.GetResp
		if err := rep.Call(ctx, "Get", docstore.GetReq{Collection: collection, ID: id}, &resp); err != nil {
			lastErr = err
			continue
		}
		if !resp.Found {
			missed = append(missed, rep)
			continue
		}
		for _, m := range missed {
			m.Call(ctx, "Put", docstore.PutReq{Collection: collection, Doc: resp.Doc}, nil) //nolint:errcheck
		}
		return resp.Doc, true, nil
	}
	if len(missed) > 0 {
		return docstore.Doc{}, false, nil
	}
	return docstore.Doc{}, false, lastErr
}

// scatterFind fans one query out per live shard (with per-shard replica
// fallback) and concatenates the result sets. A document lives on exactly
// one shard — Put routes by ID — so the union has no duplicates; ordering
// and the global limit are reapplied by the caller.
func (d DB) scatterFind(ctx context.Context, method string, req any) ([]docstore.Doc, error) {
	sets := d.Shards.Scatter()
	if len(sets) == 0 {
		return nil, noShards(d.Shards)
	}
	var mu sync.Mutex
	var docs []docstore.Doc
	err := Parallel(len(sets), len(sets), func(i int) error {
		var resp docstore.FindResp
		var callErr error
		for _, rep := range sets[i] {
			resp = docstore.FindResp{}
			if callErr = rep.Call(ctx, method, req, &resp); callErr == nil {
				break
			}
		}
		if callErr != nil {
			return callErr
		}
		mu.Lock()
		docs = append(docs, resp.Docs...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return docs, nil
}

func (d DB) shardedFind(ctx context.Context, collection, field, value string, limit int) ([]docstore.Doc, error) {
	req := docstore.FindReq{Collection: collection, Field: field, Value: value, Limit: int64(limit)}
	docs, err := d.scatterFind(ctx, "Find", req)
	if err != nil {
		return nil, err
	}
	// Each shard returned its own top-limit sorted by ID; merge preserves
	// the single-store contract (ID ascending, then the global limit).
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	if limit > 0 && len(docs) > limit {
		docs = docs[:limit]
	}
	return docs, nil
}
