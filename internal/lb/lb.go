// Package lb implements client-side load balancing across the instances of
// one microservice — the role the nginx load-balancer tier plays in front
// of the suite's webservers, generalized to every tier-to-tier edge so that
// scaled-out instances share traffic. The policy is round-robin.
//
// Balanced holds no membership of its own: the live replicas, a client
// and the per-replica middleware (the circuit breaker) for each, and the
// registry follower are a shard.Router's. Balanced is the per-target chain
// around a round-robin pick from it: middleware given to Over (deadline
// budget, retry, hedge) wraps the pick, so every retry or hedged attempt
// re-picks a replica and can land on a different instance.
package lb

import (
	"context"
	"sync/atomic"

	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/transport"
)

// RoundRobin names the one policy and carries nothing. It is New's fourth
// parameter only because benchmark/ladder.go, which a change outside
// benchmark/ may not edit, still passes &RoundRobin{}; the benchmark change
// that drops the argument deletes it.
type RoundRobin struct{}

// Balanced is a load-balanced RPC client over the live replicas of one
// target service, as its router sees them.
type Balanced struct {
	router *shard.Router
	invoke transport.Invoker
	next   atomic.Uint64
}

// New creates a balanced client with no middleware over a router of its own
// holding addrs.
func New(network rpc.Network, target string, addrs []string, _ *RoundRobin) *Balanced {
	router := shard.NewRouter(network, target)
	instances := make([]registry.Instance, len(addrs))
	for i, addr := range addrs {
		instances[i].Addr = addr
	}
	router.Sync(instances)
	return Over(router)
}

// Over creates a balanced client that picks among every live replica of
// router, whatever the replica's shard label, running mws around each pick,
// outermost first. Close closes the router.
func Over(router *shard.Router, mws ...transport.Middleware) *Balanced {
	b := &Balanced{router: router}
	b.invoke = transport.Build(b.pick, mws...)
	return b
}

// Target returns the balanced service name.
func (b *Balanced) Target() string { return b.router.Target() }

// Call invokes method on a picked replica, running the balanced middleware
// chain around the pick. The request travels as a typed value (Call.Body)
// and is marshaled at the wire, straight into the connection's write
// segment — retried and hedged attempts re-encode there, which is why req
// must not be mutated until Call returns.
func (b *Balanced) Call(ctx context.Context, method string, req, resp any) error {
	return transport.Unary(ctx, b.invoke, b.router.Target(), "", method, req, resp)
}

// Invoke runs the balanced middleware chain for a caller-built call.
func (b *Balanced) Invoke(ctx context.Context, call *transport.Call) error {
	return b.invoke(ctx, call)
}

// pick is the terminal invoker under the balanced middleware: take the next
// replica in round-robin order and issue one attempt, stamped with its
// address. Transport-level failures (dial refused, connection lost, breaker
// rejection) fail over once to the next replica, so a dead instance doesn't
// surface to callers while the registry catches up; application errors are
// returned as-is. A lone replica takes no turn, so a call writes nothing to
// the counter that every caller's core shares.
func (b *Balanced) pick(ctx context.Context, call *transport.Call) error {
	reps := b.router.Replicas()
	n := len(reps)
	if n == 0 {
		return rpc.Errorf(rpc.CodeUnavailable, "lb: no backends for %q", b.router.Target())
	}
	i := 0
	if n > 1 {
		i = int(b.next.Add(1)-1) % n
	}
	err := reps[i].Invoke(ctx, call)
	if err == nil || !transport.Retryable(err) || n < 2 || ctx.Err() != nil {
		return err
	}
	return reps[(i+1)%n].Invoke(ctx, call)
}

// Close closes the router and with it every replica client.
func (b *Balanced) Close() error { return b.router.Close() }
