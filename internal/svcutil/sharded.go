package svcutil

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dsb/internal/codec"
	"dsb/internal/core"
	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/transport"
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

// StartShardReplicas boots shards×replicas instances of one stateful
// service tier under a single service name. register is called once per
// instance to build its registration function, and each call must construct
// its *own* backing store, since the replicas are independent copies
// converged only by write-all and read-repair. Unlike a logic tier's
// replicas, every instance registers with its shard index as instance
// metadata, which is what lets shard routers reassemble the anonymous pool
// into replica sets. Counts below 1 are raised to 1.
func StartShardReplicas(app *core.App, service string, shards, replicas int, register func() func(*rpc.Server)) error {
	if shards < 1 {
		shards = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			if _, err := app.StartRPCShard(service, s, register()); err != nil {
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
	var buf [4]*shard.Replica
	missed := buf[:0]
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

// Hit is one found key of a KV.MGet: Value is the value of the batch's
// Index-th key, a view of the pooled reply it arrived in.
type Hit struct {
	Index int
	Value []byte
	reply []byte // on one hit per reply: the buffer Release recycles
}

// Hits are the found keys of a KV.MGet, in key order. Their values are views
// of the replies they arrived in, valid until Release; a caller that keeps
// one longer copies it.
type Hits []Hit

// Release recycles the replies the hits view; none of their values may be
// touched afterwards. Hits never released leave their replies to the
// collector.
func (h Hits) Release() {
	for _, hit := range h {
		transport.ReleaseBuf(hit.reply)
	}
}

// MGet fetches a batch of keys in one round trip per owner group and
// returns the found ones. A batch whose keys all share one group — every
// batch at 1 × 1 — goes to that group as it came; a mixed batch is grouped
// by owner and asked one group after another on the caller's goroutine, so
// a K-key batch costs at most one call per live group instead of K calls.
// Each group's call falls back down its replicas on errors. Batch reads
// skip read-repair — the point of the batch is bounding round trips, and a
// missed entry is re-fetchable by the caller. No value is copied: each
// reply is read in place, and a reply whose lists do not answer every key
// is a CodeInternal error.
func (k KV) MGet(ctx context.Context, keys []string) (Hits, error) {
	hits := make(Hits, 0, len(keys))
	if len(keys) == 0 {
		return hits, nil
	}
	if k.Shards == nil {
		hits, err := mget(ctx, k.C, keys, nil, hits)
		if err != nil {
			return nil, err
		}
		return hits, nil
	}
	first := k.Shards.Owner(keys[0])
	same := 1
	for same < len(keys) && k.Shards.Owner(keys[same]) == first {
		same++
	}
	if same == len(keys) {
		hits, err := k.groupMGet(ctx, first, keys, nil, hits)
		if err != nil {
			return nil, err
		}
		return hits, nil
	}
	owner := make([]string, len(keys))
	for i, key := range keys {
		owner[i] = k.Shards.Owner(key)
	}
	// Each group's keys get their own stretch of grouped: a hedged attempt
	// may still be encoding one group's request while the next is asked.
	grouped, idx := make([]string, 0, len(keys)), make([]int, 0, len(keys))
	for at, label := range owner {
		if slices.Contains(owner[:at], label) {
			continue // an earlier key's group, already asked
		}
		start := len(grouped)
		idx = idx[:0]
		for i := at; i < len(keys); i++ {
			if owner[i] == label {
				grouped, idx = append(grouped, keys[i]), append(idx, i)
			}
		}
		var err error
		if hits, err = k.groupMGet(ctx, label, grouped[start:], idx, hits); err != nil {
			hits.Release()
			return nil, err
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int { return a.Index - b.Index })
	return hits, nil
}

// groupMGet asks the replicas of group label, in read order, for keys until
// one answers, appending its hits as mget does.
func (k KV) groupMGet(ctx context.Context, label string, keys []string, idx []int, hits Hits) (Hits, error) {
	reps := k.Shards.GroupReplicas(label)
	if len(reps) == 0 {
		return hits, noShards(k.Shards)
	}
	var err error
	for _, rep := range reps {
		if hits, err = mget(ctx, rep, keys, idx, hits); err == nil {
			break
		}
	}
	return hits, err
}

// mget asks one backend for keys and appends their hits to hits, the i-th
// key's as the batch's idx[i]-th (its i-th when idx is nil).
func mget(ctx context.Context, inv RawCaller, keys []string, idx []int, hits Hits) (Hits, error) {
	call := transport.AcquireCall(inv.Target(), "MGet")
	call.Body = &kv.MGetReq{Keys: keys}
	err := inv.Invoke(ctx, call)
	reply := call.Reply
	transport.ReleaseCall(call)
	if err != nil {
		return hits, err
	}
	// An MGetResp: the values, then the found flags, a byte each. Both lists
	// must answer every key.
	n, values, err := codec.DecLen(reply)
	flags, m := values, 0
	for i := 0; i < n && err == nil; i++ {
		_, flags, err = codec.DecStringBytes(flags)
	}
	if err == nil {
		m, flags, err = codec.DecLen(flags)
	}
	if err != nil || n != len(keys) || m != len(keys) || len(flags) != m {
		transport.ReleaseBuf(reply)
		return hits, rpc.Errorf(rpc.CodeInternal, "%s.MGet: %d keys answered by %d values and %d flags (%d bytes): %v",
			inv.Target(), len(keys), n, m, len(flags), err)
	}
	first := len(hits)
	for i, f := range flags {
		var v []byte
		v, values, _ = codec.DecStringBytes(values) // walked above
		if f != 0 {
			at := i
			if idx != nil {
				at = idx[i]
			}
			hits = append(hits, Hit{Index: at, Value: v})
		}
	}
	if len(hits) == first {
		transport.ReleaseBuf(reply)
	} else {
		hits[first].reply = reply
	}
	return hits, nil
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
	var buf [4]*shard.Replica
	missed := buf[:0]
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

// findReply is one shard's answer to a scattered Find.
type findReply struct {
	docs []docstore.Doc
	err  error
	done sync.WaitGroup // released when the read returns
}

// shardedFind fans the query out to every live shard, the first read on
// this goroutine and each other one on its own, and merges the replies. A
// document lives on exactly one shard — Put routes by ID — so the union has
// no duplicates; each shard returned its own top-limit sorted by ID, and
// the merge restores the single-store contract (ID ascending, then the
// global limit).
func (d DB) shardedFind(ctx context.Context, collection, field, value string, limit int) ([]docstore.Doc, error) {
	labels := d.Shards.Shards()
	if len(labels) == 0 {
		return nil, noShards(d.Shards)
	}
	req := docstore.FindReq{Collection: collection, Field: field, Value: value, Limit: int64(limit)}
	others := make([]findReply, len(labels)-1)
	for i := range others {
		r := &others[i]
		r.done.Add(1)
		go func() {
			defer r.done.Done()
			r.docs, r.err = d.findOn(ctx, labels[i+1], req)
		}()
	}
	docs, err := d.findOn(ctx, labels[0], req)
	for i := range others {
		r := &others[i]
		r.done.Wait()
		if err == nil {
			err = r.err
		}
		docs = append(docs, r.docs...)
	}
	if err != nil {
		return nil, err
	}
	slices.SortFunc(docs, func(a, b docstore.Doc) int { return strings.Compare(a.ID, b.ID) })
	if limit > 0 && len(docs) > limit {
		docs = docs[:limit]
	}
	return docs, nil
}

// findOn runs one Find on a shard, falling back down its replicas.
func (d DB) findOn(ctx context.Context, label string, req docstore.FindReq) ([]docstore.Doc, error) {
	reps := d.Shards.GroupReplicas(label)
	if len(reps) == 0 {
		return nil, noShards(d.Shards)
	}
	var err error
	for _, rep := range reps {
		var resp docstore.FindResp
		if err = rep.Call(ctx, "Find", req, &resp); err == nil {
			return resp.Docs, nil
		}
	}
	return nil, err
}
