// Package lb implements client-side load balancing across the instances of
// one microservice — the role the nginx load-balancer tier plays in front
// of the suite's webservers, generalized to every tier-to-tier edge so that
// scaled-out instances share traffic. Policies: round-robin, least
// outstanding connections, and power-of-two-choices.
//
// Balanced is also where the per-target half of the resilience stack lives:
// middleware installed with WithMiddleware (deadline budget, retry, hedge)
// wraps the replica choice, so every retry or hedged attempt re-picks a
// backend and can land on a different instance. Per-replica middleware
// (the circuit breaker) is installed on each backend's client through the
// WithBackendInstrument factory.
package lb

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Policy selects a backend index given per-backend outstanding counts.
type Policy interface {
	// Pick returns the index of the chosen backend; n is len(outstanding).
	Pick(n int, outstanding func(i int) int64) int
}

// RoundRobin cycles through backends.
type RoundRobin struct{ next atomic.Uint64 }

// Pick implements Policy.
func (p *RoundRobin) Pick(n int, _ func(int) int64) int {
	return int(p.next.Add(1)-1) % n
}

// LeastConn picks the backend with the fewest outstanding requests.
type LeastConn struct{}

// Pick implements Policy.
func (LeastConn) Pick(n int, outstanding func(int) int64) int {
	best, bestV := 0, outstanding(0)
	for i := 1; i < n; i++ {
		if v := outstanding(i); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// PowerOfTwo samples two random backends and picks the less loaded, the
// classic load-balancing compromise between cost and tail behaviour.
type PowerOfTwo struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPowerOfTwo returns a seeded power-of-two-choices policy.
func NewPowerOfTwo(seed uint64) *PowerOfTwo {
	return &PowerOfTwo{rng: rand.New(rand.NewPCG(seed, 0x9E37))}
}

// Pick implements Policy.
func (p *PowerOfTwo) Pick(n int, outstanding func(int) int64) int {
	if n == 1 {
		return 0
	}
	p.mu.Lock()
	a := p.rng.IntN(n)
	b := p.rng.IntN(n - 1)
	p.mu.Unlock()
	if b >= a {
		b++
	}
	if outstanding(b) < outstanding(a) {
		return b
	}
	return a
}

type backend struct {
	addr        string
	client      *rpc.Client
	outstanding atomic.Int64
	requests    atomic.Int64
	failures    atomic.Int64
	breaker     func() string // nil when no instrumented breaker installed
}

func (be *backend) invoke(ctx context.Context, call *transport.Call) error {
	be.outstanding.Add(1)
	be.requests.Add(1)
	err := be.client.Invoke(ctx, call)
	be.outstanding.Add(-1)
	if transport.FailureSignal(err) {
		be.failures.Add(1)
	}
	return err
}

// Balanced is a load-balanced RPC client over the instances of one target
// service. Backends can be added and removed at runtime as instances scale
// out and in.
type Balanced struct {
	network    rpc.Network
	target     string
	policy     Policy
	mws        []transport.Middleware
	instrument func(addr string) ([]transport.Middleware, func() string)
	invoke     transport.Invoker

	mu   sync.Mutex               // serializes AddBackend, RemoveBackend and Close
	snap atomic.Pointer[snapshot] // what calls and Stats read, without mu
}

// snapshot is one immutable version of the backend set. Membership changes
// publish a new one; a call picks from the one it loaded, so it takes no
// lock, and outstanding is bound here once so a pick allocates no closure.
type snapshot struct {
	backends    []*backend
	outstanding func(i int) int64
}

func (b *Balanced) publish(backends []*backend) {
	b.snap.Store(&snapshot{backends: backends, outstanding: func(i int) int64 {
		return backends[i].outstanding.Load()
	}})
}

// Option configures a Balanced client.
type Option func(*Balanced)

// WithMiddleware appends per-target middleware around the replica choice:
// each attempt the chain makes (a retry, a hedge) re-picks a backend. This
// is where the deadline-budget → retry → hedge stack installs.
func WithMiddleware(mws ...transport.Middleware) Option {
	return func(b *Balanced) { b.mws = append(b.mws, mws...) }
}

// WithBackendInstrument installs a factory producing per-replica middleware
// for each backend address as it is added — the circuit breaker installs
// here, one instance per replica, so a slow or dead instance is ejected
// individually and its CodeUnavailable rejections fail over to peers — plus
// a per-replica health probe: a function reporting the replica's breaker
// state ("closed", "open", "half-open"), surfaced through Stats. Use
// transport.ResilienceConfig.InstrumentedBackendFactory to build one.
func WithBackendInstrument(f func(addr string) ([]transport.Middleware, func() string)) Option {
	return func(b *Balanced) { b.instrument = f }
}

// New creates a balanced client. addrs may be empty initially.
func New(network rpc.Network, target string, addrs []string, policy Policy, opts ...Option) *Balanced {
	if policy == nil {
		policy = &RoundRobin{}
	}
	b := &Balanced{network: network, target: target, policy: policy}
	for _, o := range opts {
		o(b)
	}
	b.invoke = transport.Build(b.invokeOnce, b.mws...)
	b.publish(nil)
	for _, a := range addrs {
		b.AddBackend(a)
	}
	return b
}

// Target returns the balanced service name.
func (b *Balanced) Target() string { return b.target }

// AddBackend adds an instance address (idempotent).
func (b *Balanced) AddBackend(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	backends := b.snap.Load().backends
	for _, be := range backends {
		if be.addr == addr {
			return
		}
	}
	var probe func() string
	var mws []transport.Middleware
	if b.instrument != nil {
		mws, probe = b.instrument(addr)
	}
	b.publish(append(backends[:len(backends):len(backends)], &backend{
		addr:    addr,
		client:  rpc.NewClient(b.network, b.target, addr, rpc.WithMiddleware(mws...)),
		breaker: probe,
	}))
}

// RemoveBackend drops an instance address, closing its client. In-flight
// calls holding the old snapshot finish against the closed client and fail
// over.
func (b *Balanced) RemoveBackend(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	backends := b.snap.Load().backends
	for i, be := range backends {
		if be.addr == addr {
			be.client.Close()
			next := make([]*backend, 0, len(backends)-1)
			next = append(next, backends[:i]...)
			b.publish(append(next, backends[i+1:]...))
			return
		}
	}
}

// Backends returns the current backend addresses.
func (b *Balanced) Backends() []string {
	backends := b.snap.Load().backends
	out := make([]string, len(backends))
	for i, be := range backends {
		out[i] = be.addr
	}
	return out
}

// FollowRegistry keeps the backend set synchronized with the registry's
// view of the target service until stop closes. Every membership change —
// scale-out, scale-in, and passive eviction when a crashed replica's health
// lease expires — reconciles the backends, so a dead instance stops
// receiving picks within one lease TTL without any caller-side probing.
// It blocks; run it on its own goroutine.
func (b *Balanced) FollowRegistry(reg *registry.Registry, stop <-chan struct{}) {
	for {
		// Register the watch before reconciling so a change landing between
		// the two is never missed.
		ch := reg.Changed(b.target)
		want := reg.Lookup(b.target)
		wantSet := make(map[string]bool, len(want))
		for _, addr := range want {
			wantSet[addr] = true
			b.AddBackend(addr)
		}
		for _, addr := range b.Backends() {
			if !wantSet[addr] {
				b.RemoveBackend(addr)
			}
		}
		select {
		case <-stop:
			return
		case <-ch:
		}
	}
}

// Call invokes method on a backend chosen by the policy, running the
// balanced middleware chain around the choice. The request travels as a
// typed value (Call.Body) and is marshaled at the wire, straight into the
// connection's write segment — retried and hedged attempts re-encode there,
// which is why req must not be mutated until Call returns.
func (b *Balanced) Call(ctx context.Context, method string, req, resp any) error {
	call := transport.AcquireCall(b.target, method)
	call.Body = req
	err := b.invoke(ctx, call)
	if err == nil && resp != nil {
		if uerr := codec.Unmarshal(call.Reply, resp); uerr != nil {
			err = fmt.Errorf("lb: unmarshal %s.%s reply: %w", b.target, method, uerr)
		}
	}
	transport.ReleaseBuf(call.Reply)
	transport.ReleaseCall(call)
	return err
}

// CallOneWay issues a fire-and-forget call on a policy-picked backend: the
// balanced middleware chain runs with Call.OneWay set and the terminal
// client completes at send without registering a reply waiter. Only
// send-side errors come back; see rpc.Client.CallOneWay for the contract.
func (b *Balanced) CallOneWay(ctx context.Context, method string, req any) error {
	call := transport.AcquireCall(b.target, method)
	call.Body = req
	call.OneWay = true
	err := b.invoke(ctx, call)
	transport.ReleaseCall(call)
	return err
}

// Invoke runs the balanced middleware chain for a caller-built call.
func (b *Balanced) Invoke(ctx context.Context, call *transport.Call) error {
	return b.invoke(ctx, call)
}

// Stream opens a streaming call on a policy-picked backend. The open runs
// through the balanced chain (so a dead instance fails over exactly like a
// unary call); the stream then lives on that backend's connection until
// teardown — it does not re-balance mid-stream.
func (b *Balanced) Stream(ctx context.Context, method string, req any) (*transport.Stream, error) {
	return transport.OpenStream(ctx, b.invoke, b.target, "", method, req)
}

var _ transport.Streamer = (*Balanced)(nil)

// invokeOnce is the terminal invoker under the balanced middleware: pick a
// replica and issue one attempt. Transport-level failures (dial refused,
// connection lost, breaker rejection) fail over once to the next backend,
// so a dead instance doesn't surface to callers while the registry catches
// up; application errors are returned as-is.
func (b *Balanced) invokeOnce(ctx context.Context, call *transport.Call) error {
	snap := b.snap.Load()
	backends := snap.backends
	if len(backends) == 0 {
		return rpc.Errorf(rpc.CodeUnavailable, "lb: no backends for %q", b.target)
	}
	idx := b.policy.Pick(len(backends), snap.outstanding)
	if idx < 0 || idx >= len(backends) {
		return fmt.Errorf("lb: policy picked invalid backend %d/%d", idx, len(backends))
	}
	err := backends[idx].invoke(ctx, call)
	if err == nil || !transport.Retryable(err) || len(backends) < 2 || ctx.Err() != nil {
		return err
	}
	// One failover attempt on the neighboring backend.
	return backends[(idx+1)%len(backends)].invoke(ctx, call)
}

// Close closes all backend clients.
func (b *Balanced) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, be := range b.snap.Load().backends {
		be.client.Close()
	}
	b.publish(nil)
	return nil
}
