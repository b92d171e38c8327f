package shard

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Router is the suite's replica set: the live replicas of one service, a
// client and middleware chain for each, following the registry. Replicas
// of a sharded service register under one service name, distinguished by
// the shard index in their registry instance metadata (MetaShard); the
// Router groups them into replica groups, places the group labels on a
// consistent-hash ring, and hands callers the ordered replicas for a key.
// A service with no shard labels is one group, which is how lb.Balanced
// round-robins over a stateless tier. Membership is registry-driven: when a
// health lease evicts a replica — or a whole shard — the ring re-forms on
// the next Changed notification.
//
// Sync publishes each membership as an immutable snapshot, so every read
// (Route, GroupReplicas, Group, Replicas, Owner, Scatter, Shards) takes no
// lock, and the replica slices the snapshot hands out are shared: callers
// must not modify them.
//
// The Router is transport-level only: it decides *which* replicas a key
// maps to and in what read order, while the read-one/write-all and
// read-repair policies live in the typed clients layered on top
// (svcutil.KV, svcutil.DB). Every per-replica invoker runs the full
// middleware chain the Router was built with, so tracing, fault injection,
// deadline budgets, retries, and per-replica circuit breakers all see the
// sharded backends individually.
type Router struct {
	network   rpc.Network
	target    string
	mws       []transport.Middleware
	replicaMW func(addr string) []transport.Middleware

	mu     sync.Mutex // serializes Sync and Close
	closed bool
	view   atomic.Pointer[view]
}

// view is one immutable membership snapshot.
type view struct {
	ring   *Ring
	groups map[string]*group
	all    []*Replica // every replica, in address order
}

// group is one shard's replica set. twice holds its replicas in address
// order twice over, so the read order starting at replica i is the window
// twice[i:i+n]: every rotation exists up front, and a read copies nothing.
type group struct {
	twice []*Replica
	rr    *atomic.Uint64 // rotation counter, kept across snapshots while the label lives
}

// byAddr returns the group's replicas in address order; nil for a nil group.
func (g *group) byAddr() []*Replica {
	if g == nil {
		return nil
	}
	n := len(g.twice) / 2
	return g.twice[:n:n]
}

// rotated returns the group's replicas starting at the next rotation pick (a
// group of one takes none, so writes nothing shared); nil for a nil group.
func (g *group) rotated() []*Replica {
	if g == nil {
		return nil
	}
	n := len(g.twice) / 2
	i := 0
	if n > 1 {
		i = int(g.rr.Add(1)-1) % n
	}
	return g.twice[i : i+n : i+n]
}

// Replica is one addressable replica of one shard: a dedicated client
// built with the router's middleware chain. It satisfies transport.Caller.
type Replica struct {
	addr   string
	shard  string
	target string
	client *rpc.Client
	invoke transport.Invoker // client.Invoke, bound once
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
	return transport.Unary(ctx, r.invoke, r.target, r.addr, method, req, resp)
}

// CallOneWay issues a fire-and-forget call to this replica through the
// middleware chain, stamped with the replica address like Call: it
// completes at send, and only send-side errors come back (see
// rpc.Client.CallOneWay).
func (r *Replica) CallOneWay(ctx context.Context, method string, req any) error {
	return transport.OneWay(ctx, r.invoke, r.target, r.addr, method, req)
}

// Invoke stamps a caller-built call with the replica address and runs it
// through the replica's chain — the terminal step of lb.Balanced's pick.
func (r *Replica) Invoke(ctx context.Context, call *transport.Call) error {
	call.Addr = r.addr
	return r.invoke(ctx, call)
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

// WithReplicaMiddleware installs a factory of per-replica middleware, built
// once for each replica address as it joins and run under the per-call
// chain, adjacent to the wire. The circuit breaker installs here, one
// instance per replica (transport.ResilienceConfig.BackendFactory), so a
// slow or dead replica is ejected individually; on a sharded tier the fault
// layer follows it, so the breaker times injected slowness and errors.
func WithReplicaMiddleware(f func(addr string) []transport.Middleware) Option {
	return func(r *Router) { r.replicaMW = f }
}

// NewRouter creates a router for the service target. It starts empty; call
// Sync (or run FollowRegistry) to populate membership.
func NewRouter(network rpc.Network, target string, opts ...Option) *Router {
	r := &Router{network: network, target: target}
	for _, o := range opts {
		o(r)
	}
	r.view.Store(emptyView())
	return r
}

func emptyView() *view {
	return &view{ring: NewRing(DefaultVnodes, nil), groups: map[string]*group{}}
}

// Target returns the sharded service name.
func (r *Router) Target() string { return r.target }

// Sync reconciles membership against the given instance set, one per
// address: new replicas are wired, removed ones closed, and the ring is
// rebuilt when the set of shard labels with live replicas changed.
// Instances without a MetaShard label group under the catch-all "" shard.
func (r *Router) Sync(instances []registry.Instance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	old := r.view.Load()
	stale := make(map[string]*Replica, len(old.all))
	for _, rep := range old.all {
		stale[rep.addr] = rep
	}
	all := make([]*Replica, 0, len(instances))
	for _, inst := range instances {
		label := inst.Meta[MetaShard]
		rep, ok := stale[inst.Addr]
		if ok && rep.shard == label {
			delete(stale, inst.Addr)
		} else {
			rep = r.newReplica(label, inst.Addr)
		}
		all = append(all, rep)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].addr < all[j].addr })

	v := &view{groups: make(map[string]*group), all: all}
	for _, rep := range all {
		g := v.groups[rep.shard]
		if g == nil {
			g = &group{rr: new(atomic.Uint64)}
			if prev := old.groups[rep.shard]; prev != nil {
				g.rr = prev.rr
			}
			v.groups[rep.shard] = g
		}
		g.twice = append(g.twice, rep)
	}
	labels := make([]string, 0, len(v.groups))
	for label, g := range v.groups {
		g.twice = append(g.twice, g.twice...)
		labels = append(labels, label)
	}
	sort.Strings(labels)
	v.ring = old.ring
	if !slices.Equal(labels, old.ring.members) {
		v.ring = NewRing(DefaultVnodes, labels)
	}
	r.view.Store(v)
	// In-flight calls holding a replica of the old snapshot finish against
	// its closed client and fail over at the caller.
	for _, rep := range stale {
		rep.client.Close() //nolint:errcheck // best-effort teardown
	}
}

func (r *Router) newReplica(label, addr string) *Replica {
	chain := r.mws
	if r.replicaMW != nil {
		chain = append(chain[:len(chain):len(chain)], r.replicaMW(addr)...)
	}
	client := rpc.NewClient(r.network, r.target, addr, rpc.WithMiddleware(chain...))
	return &Replica{addr: addr, shard: label, target: r.target, client: client, invoke: client.Invoke}
}

// FollowRegistry keeps membership synchronized with the registry until
// stop closes, re-forming the ring on every Changed notification, so a
// replica evicted by lease expiry leaves the routing tables within one TTL.
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

// Shards returns the live shard labels, sorted. The slice is shared and
// read-only.
func (r *Router) Shards() []string { return r.view.Load().ring.members }

// Owner returns the shard label owning key ("" when no shards are live).
func (r *Router) Owner(key string) string { return r.view.Load().ring.Owner(key) }

// Route returns the owning shard's replicas for key in read order: the
// rotation pick first (spreading read load across the set), then its
// siblings as fallbacks. Read-one consumers take the head and fall back
// down the slice; write-all consumers write the whole slice. Empty when no
// shards are live. The slice is shared and read-only.
func (r *Router) Route(key string) []*Replica {
	v := r.view.Load()
	return v.groups[v.ring.Owner(key)].rotated()
}

// GroupReplicas returns the replicas of one shard label in read order —
// the per-shard handle batch operations use after grouping keys by Owner.
// The slice is shared and read-only.
func (r *Router) GroupReplicas(label string) []*Replica {
	return r.view.Load().groups[label].rotated()
}

// Group returns the replicas of one shard label in address order, so the
// first is a primary every client agrees on from registry state alone. The
// slice is shared and read-only.
func (r *Router) Group(label string) []*Replica {
	return r.view.Load().groups[label].byAddr()
}

// Replicas returns every live replica, whatever its shard, in address
// order. The slice is shared and read-only.
func (r *Router) Replicas() []*Replica { return r.view.Load().all }

// Scatter returns every live shard's replicas in read order, sorted by
// shard label — the fan-out set for whole-tier queries (Find, Subscribe).
func (r *Router) Scatter() [][]*Replica {
	v := r.view.Load()
	out := make([][]*Replica, len(v.ring.members))
	for i, label := range v.ring.members {
		out[i] = v.groups[label].rotated()
	}
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
	for _, rep := range r.view.Load().all {
		rep.client.Close() //nolint:errcheck
	}
	r.view.Store(emptyView())
	return nil
}
