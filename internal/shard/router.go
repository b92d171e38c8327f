package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Router routes keys to the replica sets of one sharded service. All
// replicas register under a single service name, distinguished by the
// shard index in their registry instance metadata (MetaShard); the Router
// groups them into replica groups, places the group labels on a
// consistent-hash ring, and hands callers the ordered replicas for a key.
// Membership is registry-driven: when a health lease evicts a replica —
// or a whole shard — the ring re-forms on the next Changed notification,
// exactly as load balancers follow stateless tiers.
//
// The Router is transport-level only: it decides *which* replicas a key
// maps to and in what read order, while the read-one/write-all and
// read-repair policies live in the typed clients layered on top
// (svcutil.KV, svcutil.DB). Every per-replica invoker runs the full
// middleware chain the Router was built with, so tracing, fault injection,
// deadline budgets, retries, and per-replica circuit breakers all see the
// sharded backends individually.
type Router struct {
	network    rpc.Network
	target     string
	mws        []transport.Middleware
	instrument func(addr string) ([]transport.Middleware, func() string)
	replicaMW  func(addr string) []transport.Middleware

	mu     sync.RWMutex
	groups map[string]*group
	ring   *Ring
	closed bool
}

// group is one shard's replica set.
type group struct {
	label    string
	replicas []*Replica // sorted by address; copy-on-write under Router.mu
	rr       atomic.Uint64
}

// Replica is one addressable replica of one shard: a dedicated client
// wrapped in the router's middleware chain. It satisfies transport.Caller.
type Replica struct {
	addr    string
	shard   string
	target  string
	client  *rpc.Client
	invoke  transport.Invoker
	breaker func() string // nil without an instrumented factory
}

// Addr returns the replica's instance address.
func (r *Replica) Addr() string { return r.addr }

// Target returns the sharded service name.
func (r *Replica) Target() string { return r.target }

// Call invokes method on this replica through the middleware chain. The
// call is stamped with the replica address before the chain runs, so
// middleware that targets individual replicas (fault rules with Addr set)
// can tell siblings apart.
func (r *Replica) Call(ctx context.Context, method string, req, resp any) error {
	call := transport.AcquireCall(r.target, method)
	call.Body = req
	call.Addr = r.addr
	err := r.invoke(ctx, call)
	if err == nil && resp != nil {
		if uerr := codec.Unmarshal(call.Reply, resp); uerr != nil {
			err = fmt.Errorf("shard: unmarshal %s.%s reply: %w", r.target, method, uerr)
		}
	}
	transport.ReleaseBuf(call.Reply)
	transport.ReleaseCall(call)
	return err
}

// Stream opens a streaming call pinned to this replica, through the same
// middleware chain as Call (the call is stamped with the replica address
// first). The partitioned broker's push consumers use it to hold a standing
// delivery stream to each shard primary.
func (r *Replica) Stream(ctx context.Context, method string, req any) (*transport.Stream, error) {
	return transport.OpenStream(ctx, r.invoke, r.target, r.addr, method, req)
}

var _ transport.Streamer = (*Replica)(nil)

// Option configures a Router.
type Option func(*Router)

// WithMiddleware appends the per-call chain every replica invocation runs,
// outermost first — tracing, app middleware, and the per-target half of the
// resilience stack (deadline budget, retry, hedge) install here.
func WithMiddleware(mws ...transport.Middleware) Option {
	return func(r *Router) { r.mws = append(r.mws, mws...) }
}

// WithReplicaInstrument installs a per-replica middleware factory with a
// health probe — the circuit breaker, one instance per replica, matching
// lb.WithBackendInstrument. It sits under the per-call chain, so retries
// and budgets wrap it and its rejections surface as fast failures the
// typed clients fall over on.
func WithReplicaInstrument(f func(addr string) ([]transport.Middleware, func() string)) Option {
	return func(r *Router) { r.instrument = f }
}

// WithReplicaMiddleware installs per-replica middleware *inside* the
// breaker, adjacent to the wire. Fault injection hooks in here so injected
// slowness and errors are timed and attributed by the replica's breaker —
// on the sharded path the fault layer plays the wire, not the caller.
func WithReplicaMiddleware(f func(addr string) []transport.Middleware) Option {
	return func(r *Router) { r.replicaMW = f }
}

// NewRouter creates a router for the sharded service target. It starts
// empty; call Sync (or run FollowRegistry) to populate membership.
func NewRouter(network rpc.Network, target string, opts ...Option) *Router {
	r := &Router{
		network: network,
		target:  target,
		groups:  make(map[string]*group),
		ring:    NewRing(DefaultVnodes, nil),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Target returns the sharded service name.
func (r *Router) Target() string { return r.target }

// Sync reconciles membership against the given instance set: new replicas
// are wired, removed ones closed, and the ring is rebuilt over the shard
// labels that still have live replicas. Instances without a MetaShard
// label group under the catch-all "" shard.
func (r *Router) Sync(instances []registry.Instance) {
	want := make(map[string]map[string]bool) // label -> addr set
	for _, inst := range instances {
		label := inst.Meta[MetaShard]
		if want[label] == nil {
			want[label] = make(map[string]bool)
		}
		want[label][inst.Addr] = true
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	var stale []*Replica
	changed := false
	// Drop groups and replicas that left.
	for label, g := range r.groups {
		keep := g.replicas[:0:0]
		for _, rep := range g.replicas {
			if want[label][rep.addr] {
				keep = append(keep, rep)
			} else {
				stale = append(stale, rep)
				changed = true
			}
		}
		if len(keep) == 0 {
			delete(r.groups, label)
			continue
		}
		g.replicas = keep
	}
	// Add groups and replicas that joined.
	for label, addrs := range want {
		g, ok := r.groups[label]
		if !ok {
			g = &group{label: label}
			r.groups[label] = g
		}
		have := make(map[string]bool, len(g.replicas))
		for _, rep := range g.replicas {
			have[rep.addr] = true
		}
		for addr := range addrs {
			if have[addr] {
				continue
			}
			g.replicas = append(g.replicas, r.newReplica(label, addr))
			changed = true
		}
		sort.Slice(g.replicas, func(i, j int) bool { return g.replicas[i].addr < g.replicas[j].addr })
	}
	if changed || r.ring.Size() != len(r.groups) {
		labels := make([]string, 0, len(r.groups))
		for label := range r.groups {
			labels = append(labels, label)
		}
		r.ring = NewRing(DefaultVnodes, labels)
	}
	// Close evicted clients outside nothing: Close is non-blocking enough,
	// and in-flight calls holding the old replica fail over at the caller.
	for _, rep := range stale {
		rep.client.Close() //nolint:errcheck // best-effort teardown
	}
}

func (r *Router) newReplica(label, addr string) *Replica {
	rep := &Replica{addr: addr, shard: label, target: r.target}
	var inner []transport.Middleware
	if r.instrument != nil {
		mws, probe := r.instrument(addr)
		inner = append(inner, mws...)
		rep.breaker = probe
	}
	if r.replicaMW != nil {
		inner = append(inner, r.replicaMW(addr)...)
	}
	rep.client = rpc.NewClient(r.network, r.target, addr)
	chain := make([]transport.Middleware, 0, len(r.mws)+len(inner))
	chain = append(chain, r.mws...)
	chain = append(chain, inner...)
	rep.invoke = transport.Build(rep.client.Invoke, chain...)
	return rep
}

// FollowRegistry keeps membership synchronized with the registry until
// stop closes, re-forming the ring on every Changed notification — the
// same watcher machinery stateless balancers use, so a shard replica
// evicted by lease expiry leaves the routing tables within one TTL.
// It blocks; run it on its own goroutine.
func (r *Router) FollowRegistry(reg *registry.Registry, stop <-chan struct{}) {
	for {
		// Watch before reconciling so a change between the two is not lost.
		ch := reg.Changed(r.target)
		r.Sync(reg.Instances(r.target))
		select {
		case <-stop:
			return
		case <-ch:
		}
	}
}

// Shards returns the live shard labels, sorted.
func (r *Router) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Members()
}

// Owner returns the shard label owning key ("" when no shards are live).
func (r *Router) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Owner(key)
}

// Route returns the owning shard's replicas for key in read order: the
// rotation pick first (spreading read load across the set), then its
// siblings as fallbacks. Read-one consumers take the head and fall back
// down the slice; write-all consumers write the whole slice. Empty when no
// shards are live.
func (r *Router) Route(key string) []*Replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.groups[r.ring.Owner(key)].rotated()
}

// GroupReplicas returns the replicas of one shard label in read order —
// the per-shard handle batch operations use after grouping keys by Owner.
func (r *Router) GroupReplicas(label string) []*Replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.groups[label].rotated()
}

// Scatter returns every live shard's replicas in read order, sorted by
// shard label — the fan-out set for whole-tier queries (Find, FindRange).
func (r *Router) Scatter() [][]*Replica {
	r.mu.RLock()
	groups := make([]*group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	// Snapshot each group's read order while still holding the lock:
	// rotated reads g.replicas, which Sync reassigns under the write lock.
	out := make([][]*Replica, len(groups))
	for i, g := range groups {
		out[i] = g.rotated()
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i][0].shard < out[j][0].shard })
	return out
}

// rotated snapshots the group's replicas starting at the next rotation
// pick; callers must hold the router's lock (Sync reassigns g.replicas).
// A nil group yields nil.
func (g *group) rotated() []*Replica {
	if g == nil {
		return nil
	}
	reps := g.replicas
	n := len(reps)
	if n == 0 {
		return nil
	}
	start := int(g.rr.Add(1)-1) % n
	out := make([]*Replica, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, reps[(start+i)%n])
	}
	return out
}

// ReplicaStats is a point-in-time view of one routed replica.
type ReplicaStats struct {
	Shard string
	Addr  string
	// Breaker is the replica's circuit-breaker state ("closed", "open",
	// "half-open"), or "" without an instrumented factory.
	Breaker string
}

// Stats returns a snapshot of every replica, sorted by (shard, addr).
func (r *Router) Stats() []ReplicaStats {
	r.mu.RLock()
	var out []ReplicaStats
	for _, g := range r.groups {
		for _, rep := range g.replicas {
			s := ReplicaStats{Shard: g.label, Addr: rep.addr}
			if rep.breaker != nil {
				s.Breaker = rep.breaker()
			}
			out = append(out, s)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Close closes every replica client and stops accepting Syncs.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	for _, g := range r.groups {
		for _, rep := range g.replicas {
			rep.client.Close() //nolint:errcheck
		}
	}
	r.groups = make(map[string]*group)
	r.ring = NewRing(DefaultVnodes, nil)
	return nil
}
