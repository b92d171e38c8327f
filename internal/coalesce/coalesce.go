// Package coalesce implements singleflight-style miss coalescing for the
// hot read paths: when N callers concurrently need the same key and none of
// them can be served from cache, one of them performs the backing-store
// fetch and the other N-1 wait for that result instead of issuing N-1
// duplicate fetches. This is the standard production defense against hot-key
// stampedes — the paper's tail-at-scale chapter shows Zipf-skewed traffic
// concentrating on a handful of keys, and without coalescing every cache
// expiry or invalidation of such a key turns into a thundering herd against
// the backing store.
//
// Unlike golang.org/x/sync/singleflight, results are typed, waiters can
// abandon a flight when their own context dies (without canceling the
// shared fetch), and errors are never cached: a failed flight is forgotten
// the moment it completes, so the next caller retries the fetch.
package coalesce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// call is one in-flight fetch; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group coalesces concurrent fetches per key. The zero value is ready to
// use. A Group is typically owned by one read path (one key namespace).
type Group[V any] struct {
	mu       sync.Mutex
	inflight map[string]*call[V]

	fetches atomic.Int64
	shared  atomic.Int64
}

// Stats counts flight outcomes since the group was created.
type Stats struct {
	// Fetches is the number of times a caller actually ran the fetch
	// function (one per flight).
	Fetches int64
	// Shared is the number of callers that piggybacked on another caller's
	// flight instead of fetching themselves.
	Shared int64
}

// Stats returns a snapshot of the group's counters.
func (g *Group[V]) Stats() Stats {
	return Stats{Fetches: g.fetches.Load(), Shared: g.shared.Load()}
}

// Do returns the result of running fn for key, coalescing concurrent calls:
// while a flight for key is in progress, additional callers wait for its
// result instead of invoking fn. The winner runs fn with its own context;
// a waiter whose context dies stops waiting and returns its context error,
// but the flight itself continues for the remaining waiters. Errors (and
// panics, which are rethrown in the winner and surfaced as errors to the
// waiters) propagate to every caller of the flight and are never cached —
// the next Do after a failed flight runs fn again.
//
// The result value is shared across all callers of one flight; callers must
// treat reference types (slices, maps) as read-only.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[string]*call[V])
	}
	if c, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		g.shared.Add(1)
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.inflight[key] = c
	g.mu.Unlock()

	g.fetches.Add(1)
	normal := false
	defer func() {
		if !normal {
			// fn panicked: fail the flight so waiters are not stranded,
			// then let the panic continue unwinding the winner.
			c.err = fmt.Errorf("coalesce: fetch for %q panicked", key)
		}
		g.mu.Lock()
		delete(g.inflight, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
	normal = true
	return c.val, c.err
}
