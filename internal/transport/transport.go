// Package transport owns the unified client call path shared by the RPC
// and REST stacks: the Call descriptor every outgoing request flows
// through, the composable Middleware chain both protocols accept (tracing,
// metrics, fault injection, and the resilience layer all plug in here), and
// the coded error model the suite's services speak on the wire.
//
// The resilience layer is the production counterpart to the paper's
// tail-at-scale findings (Fig 22c: ≥1% slow servers drives microservice
// goodput to ~0 at scale; Fig 17: backpressure autoscalers cannot fix). It
// provides per-hop deadline budgets that shrink as a request descends the
// service graph, retries with exponential backoff gated by a token-bucket
// retry budget, per-replica circuit breakers with latency-outlier
// detection, and hedged requests that race a second replica after a
// configurable delay. See ResilienceConfig for the bundle.
package transport

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
)

// TraceID identifies an end-to-end request.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// SpanContext is the propagated identity of an in-flight span: the trace it
// belongs to and the span a downstream hop becomes the child of. It rides
// each call as Call.Trace and each request as fixed fields of the rpc frame
// or, on a REST hop, as the Dsb-Trace and Dsb-Span headers. Package trace
// re-exports it.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context identifies a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Call describes one outgoing client call as it flows through the
// middleware chain down to the wire exchange. Middlewares may set Trace
// (tracing stamps its client span there) and read the reply after the inner
// invoker returns. The call's deadline is its context's: the terminal
// invoker sends it with the request.
type Call struct {
	// Target is the downstream service name, for errors, tracing, and
	// per-target middleware state.
	Target string
	// Method is the invoked operation: an RPC method name such as
	// "ComposePost", or "VERB /path" for REST.
	Method string
	// Payload is the encoded request body (nil for bodyless calls).
	Payload []byte
	// Body, when non-nil, is the typed request value and takes precedence
	// over Payload: the terminal invoker encodes it directly into the
	// connection writer's buffer (through the codec fast path for registered
	// types), so no intermediate encoded []byte exists per call and
	// middleware never forces a re-encode. Because hedged and retried
	// attempts re-encode at the wire, the caller must not mutate the value
	// Body points to until the call — including any still-running hedge
	// attempts, which share it via Clone — has completed.
	Body any
	// Trace is the span the server's work becomes a child of; zero when
	// the call is not traced.
	Trace SpanContext
	// Reply is the raw reply payload, set by the terminal invoker on
	// success.
	Reply []byte

	// Addr is the replica address this call is pinned to. A shard replica
	// stamps it before running the chain; a load-balanced call has it empty
	// above the chain and stamped under it, where the replica is picked.
	// Fault rules use it to target a single replica.
	Addr string

	// OneWay marks a fire-and-forget call: the terminal invoker completes at
	// send and the server never writes a reply frame, so Reply stays nil and
	// post-send failures surface through server-side stats rather than to the
	// caller. It is a call option, not a separate path — the call still flows
	// through the full middleware chain, so stats, breakers, and fault
	// injection observe every one-way hop exactly like a synchronous one.
	OneWay bool

	// Stream marks a streaming call: the terminal invoker opens a stream
	// instead of exchanging one reply, setting StreamBody on success and
	// leaving Reply nil. Like OneWay it is a call option — the open runs
	// through the full middleware chain, so stats, breakers, retries, and
	// fault injection observe streaming hops; what they time and retry is
	// the open, the stream body then lives past the chain's return.
	Stream bool
	// StreamBody is the open stream, set by the terminal invoker when
	// Stream is true (the streaming counterpart of Reply).
	StreamBody StreamConn

	// outrun is set by the hedge middleware when this attempt lost to a
	// sibling: a peer replica proved the work completes fast, so the loser's
	// replica — not the request — was the slow party. The breaker reads it
	// to attribute slowness to the right replica (see BreakerConfig).
	outrun atomic.Bool
}

// NewCall builds a call descriptor.
func NewCall(target, method string, payload []byte) *Call {
	return &Call{Target: target, Method: method, Payload: payload}
}

// MarkOutrun flags this attempt as having been outrun by a sibling hedge
// attempt. Set before the loser is canceled, so the flag is visible when
// the canceled attempt unwinds through the breaker.
func (c *Call) MarkOutrun() { c.outrun.Store(true) }

// Outrun reports whether a sibling hedge attempt won against this one.
func (c *Call) Outrun() bool { return c.outrun.Load() }

// Clone returns an independent copy for a parallel or repeated attempt.
// Hedging and retries clone the call so concurrent attempts never share the
// reply slot; the payload (and the typed Body, when set) is shared
// read-only.
func (c *Call) Clone() *Call {
	return &Call{Target: c.Target, Method: c.Method, Payload: c.Payload, Body: c.Body, Trace: c.Trace, Addr: c.Addr, OneWay: c.OneWay, Stream: c.Stream}
}

// Invoker performs one call attempt: the terminal invoker is the wire
// exchange (pick a connection, frame the request, await the reply), and
// each middleware wraps the next invoker down.
type Invoker func(ctx context.Context, call *Call) error

// Middleware wraps an Invoker. Chains are composed once at client
// construction — not per call — so an empty chain costs nothing on the hot
// path. Middlewares must be safe for concurrent use; per-call state belongs
// on the Call (cloned per attempt), per-target state inside the middleware
// closure.
type Middleware func(next Invoker) Invoker

// Build wraps terminal with mws, mws[0] outermost, and returns the composed
// invoker. Clients call this once at construction.
func Build(terminal Invoker, mws ...Middleware) Invoker {
	inv := terminal
	for i := len(mws) - 1; i >= 0; i-- {
		inv = mws[i](inv)
	}
	return inv
}

// Caller is the typed client surface services use to talk to a downstream
// tier; *rpc.Client, *lb.Balanced, *shard.Replica and test fakes satisfy
// it, the first three through Unary. (Promoted from svcutil so every layer
// shares one definition.)
type Caller interface {
	Call(ctx context.Context, method string, req, resp any) error
	Target() string
}

// OneWayCaller is the optional fire-and-forget extension of Caller.
// *rpc.Client and *shard.Replica implement it through OneWay; typed clients
// with a naturally idempotent method (e.g. the broker's Ack under
// at-least-once delivery) type-assert for it and fall back to a synchronous
// Call when the underlying caller is a fake or an older transport.
type OneWayCaller interface {
	CallOneWay(ctx context.Context, method string, req any) error
}

// Unary is the typed call every Caller makes: it acquires a pooled call
// carrying req as its Body, pinned to addr ("" when the replica is picked
// under the chain), runs invoke, decodes the reply into resp (nil skips the
// decode), and recycles the call and its reply buffer. req must not be
// mutated until Unary returns (see Call.Body).
func Unary(ctx context.Context, invoke Invoker, target, addr, method string, req, resp any) error {
	call := AcquireCall(target, method)
	call.Body = req
	call.Addr = addr
	err := invoke(ctx, call)
	if err == nil && resp != nil {
		if uerr := codec.Unmarshal(call.Reply, resp); uerr != nil {
			err = fmt.Errorf("transport: unmarshal %s.%s reply: %w", target, method, uerr)
		}
	}
	// The decode copied everything out (the codec never aliases its input),
	// so the pooled reply buffer is dead either way.
	ReleaseBuf(call.Reply)
	ReleaseCall(call)
	return err
}

// OneWay is Unary for a fire-and-forget call: the chain runs with
// Call.OneWay set, the terminal invoker completes at send, and only
// send-side errors come back.
func OneWay(ctx context.Context, invoke Invoker, target, addr, method string, req any) error {
	call := AcquireCall(target, method)
	call.Body = req
	call.Addr = addr
	call.OneWay = true
	err := invoke(ctx, call)
	ReleaseCall(call)
	return err
}

// AnnotateFunc records a key/value on the active trace span in ctx, if any.
// The resilience middlewares receive one (usually trace.Annotate) so retry
// counts, hedge wins, and breaker transitions are attributable per request
// in the trace store.
type AnnotateFunc func(ctx context.Context, key, value string)

// Delay returns a middleware that sleeps for d before each call, used in
// live mode to model a slow link (e.g. the cloud↔edge wifi hop in the
// Swarm application).
func Delay(d time.Duration) Middleware {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) error {
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				return ctx.Err()
			}
			return next(ctx, call)
		}
	}
}
