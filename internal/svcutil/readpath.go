package svcutil

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/coalesce"
	"dsb/internal/docstore"
)

// ReadPath is the shared cache-aside read path: check the cache tier,
// fall back to the authoritative fetch on a miss, and populate the cache
// with the result. It folds in the two hot-path behaviors every lookaside
// consumer needs and none of them got right independently:
//
//   - corrupt-entry purge: a cached value that fails Decode is deleted and
//     treated as a miss, so the authoritative store always backs a bad
//     entry (the timeline service used to keep serving a partial decode);
//   - miss coalescing: concurrent misses on one key collapse into a single
//     backing fetch (a hot-key stampede on a just-invalidated entry used
//     to multiply into one backing read per waiter).
type ReadPath[V any] struct {
	// MC is the cache tier.
	MC KV
	// TTL bounds cached entries (0 = no expiry).
	TTL time.Duration
	// Decode turns a cached value back into V. A Decode error marks the
	// entry corrupt: it is purged and the fetch path runs.
	Decode func([]byte) (V, error)
	// Fetch loads from the authoritative store on a miss, returning the
	// value, its cache encoding (nil = do not cache), and whether it
	// exists. It runs at most once per key per miss burst.
	Fetch func(ctx context.Context, key string) (V, []byte, bool, error)
	// NoCoalesce disables miss coalescing (experiment contrast arm).
	NoCoalesce bool

	group coalesce.Group[readResult[V]]
}

type readResult[V any] struct {
	val   V
	found bool
}

// Get returns the value for key, consulting the cache first.
func (rp *ReadPath[V]) Get(ctx context.Context, key string) (V, bool, error) {
	var zero V
	if raw, hit, err := rp.MC.Get(ctx, key); err != nil {
		return zero, false, err
	} else if hit {
		v, derr := rp.Decode(raw)
		if derr == nil {
			return v, true, nil
		}
		// Corrupt entry: purge it so the next reader goes straight to the
		// backing store too, and fall through to the authoritative fetch.
		// Best-effort — if the delete fails the entry stays poisoned but
		// this read is still served correctly from the store.
		rp.MC.Delete(ctx, key) //nolint:errcheck
	}
	fetch := func(ctx context.Context) (readResult[V], error) {
		v, encoded, found, err := rp.Fetch(ctx, key)
		if err != nil {
			return readResult[V]{}, err
		}
		if found && encoded != nil {
			// Best-effort populate; a failed Set just means the next
			// reader misses again.
			rp.MC.Set(ctx, key, encoded, rp.TTL) //nolint:errcheck
		}
		return readResult[V]{val: v, found: found}, nil
	}
	var res readResult[V]
	var err error
	if rp.NoCoalesce {
		res, err = fetch(ctx)
	} else {
		res, err = rp.group.Do(ctx, key, fetch)
	}
	if err != nil {
		return zero, false, err
	}
	return res.val, res.found, nil
}

// ListPrepend atomically prepends value to the []string body of the
// document, creating it if absent and capping the list at max entries
// (<=0 = unbounded). Returns the resulting list length.
func (d DB) ListPrepend(ctx context.Context, collection, id, value string, max int) (int, error) {
	resp, err := d.listPrepend(ctx, collection, id, value, max, false)
	return int(resp.Len), err
}

// ListPrependUnique is ListPrepend that skips the write when value is
// already in the list, and reports whether it prepended: the store-level
// idempotency backstop at-least-once delivery pipelines write through, and
// a set insert in one hop — concurrent inserts of different values all land,
// where a Get, an append and a Put lose all but one.
func (d DB) ListPrependUnique(ctx context.Context, collection, id, value string, max int) (bool, error) {
	resp, err := d.listPrepend(ctx, collection, id, value, max, true)
	return resp.Inserted, err
}

func (d DB) listPrepend(ctx context.Context, collection, id, value string, max int, unique bool) (docstore.ListPrependResp, error) {
	return dbWrite[docstore.ListPrependResp](ctx, d, id, "ListPrepend",
		docstore.ListPrependReq{Collection: collection, ID: id, Value: value, Cap: int64(max), Unique: unique})
}

// AddNum atomically adds delta to a numeric field of the document unless
// the sum would fall below floor, creating a missing document if create is
// set (see docstore.Collection.AddNum). It is how a replicated service keeps
// a balance or a counter: a Get, a check and a Put from two replicas lose an
// update.
func (d DB) AddNum(ctx context.Context, collection, id, field string, delta, floor int64, create bool) (value int64, found, ok bool, err error) {
	resp, err := dbWrite[docstore.AddNumResp](ctx, d, id, "AddNum",
		docstore.AddNumReq{Collection: collection, ID: id, Field: field, Delta: delta, Floor: floor, Create: create})
	return resp.Value, resp.Found, resp.OK, err
}

// dbWrite sends a store-side read-modify-write of document id: to the one
// backend, or sharded to every replica of id's owner group, the first ack
// answering. Each replica applies the operation to its own copy, so replicas
// that saw the same adds (they commute), or unique prepends and removes of
// distinct members (as sets; two racing prepends may order differently),
// agree, where a Put pair need not.
func dbWrite[Resp any](ctx context.Context, d DB, id, method string, req any) (resp Resp, err error) {
	if d.Shards != nil {
		return firstAck[Resp](ctx, d.Shards, id, method, req)
	}
	err = d.C.Call(ctx, method, req, &resp)
	return resp, err
}

// Parallel runs fn(0..n-1) across at most workers goroutines, the caller's
// among them, and returns the first error (every index still runs). It is
// the bounded fan-out primitive for write paths that touch many downstream
// keys — pushing a post onto each follower's timeline, invalidating a batch
// of cache entries — where sequential calls serialize on per-call RPC
// latency and unbounded goroutines overwhelm the downstream tier, and the
// one way a handler overlaps independent calls.
func Parallel(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	// The caller is one of the workers, and the state the others share is
	// one allocation.
	var st struct {
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	}
	work := func() {
		for i := int(st.next.Add(1)) - 1; i < n; i = int(st.next.Add(1)) - 1 {
			if err := fn(i); err != nil {
				st.errOnce.Do(func() { st.firstErr = err })
			}
		}
	}
	st.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer st.wg.Done()
			work()
		}()
	}
	work()
	st.wg.Wait()
	return st.firstErr
}
