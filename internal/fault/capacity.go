package fault

import (
	"context"
	"sync"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Capacity models a tier as the fixed-capacity server the paper's queueing
// figures assume: each matching call occupies one of Slots service slots
// for ServiceTime before it proceeds, and calls beyond that queue first come
// first served, without bound.
//
// A slot is a token carrying its departure clock, the time the service it
// last admitted ends. A call that takes a token starts service at
// max(its arrival, the clock), advances the clock by exactly ServiceTime
// and sleeps until then: a late wake-up delays the call that overslept, not
// the slot, so capacity is exact under scheduler pressure where sleeping
// while holding a semaphore loses every overshoot. Only a caller still
// waiting takes a token, so a call whose context ends in the queue consumes
// nothing (a bare departure clock books service at arrival); one abandoned
// mid-service returns at once and its slot stays booked to the service's
// end, the server finishing work nobody waits for. Both get CodeDeadline.
type Capacity struct {
	// Target and Method select the calls served ("" = any).
	Target, Method string
	// Slots calls are in service at once, ServiceTime each; 0 is unbounded,
	// a pure service delay.
	Slots       int
	ServiceTime time.Duration
	// PerAddr gives each replica address (transport.Call.Addr, stamped by
	// the shard router; load-balanced calls share the "" lane) its own
	// Slots instead of one pool for the whole Target.
	PerAddr bool
}

// newLane returns one pool of slot tokens, nil when Slots is 0.
func (c Capacity) newLane() chan time.Time {
	if c.Slots <= 0 {
		return nil
	}
	l := make(chan time.Time, c.Slots)
	for i := 0; i < c.Slots; i++ {
		l <- time.Time{}
	}
	return l
}

// serve queues for a slot of l and sits out the service time.
func (c Capacity) serve(ctx context.Context, l chan time.Time, what string) error {
	begin := time.Now()
	if l != nil {
		select {
		case free := <-l:
			if free.After(begin) {
				begin = free
			}
			defer func() { l <- begin.Add(c.ServiceTime) }()
		case <-ctx.Done():
			return transport.WrapCode(transport.CodeDeadline, ctx.Err(), "fault: capacity %s: queued: %v", what, ctx.Err())
		}
	}
	t := time.NewTimer(time.Until(begin.Add(c.ServiceTime)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return transport.WrapCode(transport.CodeDeadline, ctx.Err(), "fault: capacity %s: in service: %v", what, ctx.Err())
	}
}

// Middleware returns the client-side model, installed like
// Injector.Middleware on the wires that reach Target.
func (c Capacity) Middleware() transport.Middleware {
	var mu sync.Mutex
	lanes := make(map[string]chan time.Time)
	laneOf := func(addr string) chan time.Time {
		if !c.PerAddr {
			addr = ""
		}
		mu.Lock()
		defer mu.Unlock()
		l, ok := lanes[addr]
		if !ok {
			l = c.newLane()
			lanes[addr] = l
		}
		return l
	}
	return func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			if (c.Target == "" || c.Target == call.Target) && (c.Method == "" || c.Method == call.Method) {
				if err := c.serve(ctx, laneOf(call.Addr), call.Target); err != nil {
					return err
				}
			}
			return next(ctx, call)
		}
	}
}

// Interceptor returns the same model on the server's side of the wire: one
// lane for the server it is installed on, so each replica is its own
// fixed-capacity instance. Target and PerAddr do not apply there.
func (c Capacity) Interceptor() rpc.ServerInterceptor {
	l := c.newLane()
	return func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
		if c.Method == "" || c.Method == ctx.Method {
			if err := c.serve(ctx, l, ctx.Service); err != nil {
				return nil, err
			}
		}
		return next(ctx, payload)
	}
}
