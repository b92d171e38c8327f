package fault

import (
	"context"
	"sync"
	"testing"
	"time"

	"dsb/internal/loadgen"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// capInvoker builds c's middleware over a terminal that does nothing.
func capInvoker(c Capacity) transport.Invoker {
	return transport.Build(func(context.Context, *transport.Call) error { return nil }, c.Middleware())
}

// burst fires n concurrent calls, call i built by mk(i), and returns how
// long the slowest took.
func burst(t *testing.T, inv transport.Invoker, n int, mk func(i int) *transport.Call) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := inv(context.Background(), mk(i)); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// within reports got in [want, want+slack]: the model never finishes early,
// and the slack is scheduler wake-up, not capacity drift.
func within(got, want, slack time.Duration) bool { return got >= want && got <= want+slack }

// TestCapacitySlots: N concurrent calls through k slots finish in
// ceil(N/k) × ServiceTime; tolerance +15ms for scheduling, never early.
func TestCapacitySlots(t *testing.T) {
	const svc = 10 * time.Millisecond
	call := func(int) *transport.Call { return transport.NewCall("store", "Put", nil) }
	for _, tc := range []struct {
		slots, n int
		want     time.Duration
	}{
		{slots: 1, n: 4, want: 4 * svc},
		{slots: 3, n: 7, want: 3 * svc},
		{slots: 0, n: 16, want: svc}, // unbounded: a pure delay
	} {
		inv := capInvoker(Capacity{Target: "store", Method: "Put", Slots: tc.slots, ServiceTime: svc})
		if got := burst(t, inv, tc.n, call); !within(got, tc.want, 15*time.Millisecond) {
			t.Errorf("%d calls through %d slots took %v, want %v (+15ms)", tc.n, tc.slots, got, tc.want)
		}
	}
}

// TestCapacityMatching: calls to another target or method pass untouched,
// and empty Target/Method match everything.
func TestCapacityMatching(t *testing.T) {
	const svc = 30 * time.Millisecond
	inv := capInvoker(Capacity{Target: "store", Method: "Put", Slots: 1, ServiceTime: svc})
	got := burst(t, inv, 8, func(i int) *transport.Call {
		if i%2 == 0 {
			return transport.NewCall("other", "Put", nil)
		}
		return transport.NewCall("store", "Get", nil)
	})
	if got >= svc {
		t.Errorf("8 non-matching calls took %v, want well under one service time %v", got, svc)
	}
	any := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
	if got := burst(t, any, 2, func(int) *transport.Call { return transport.NewCall("x", "Y", nil) }); !within(got, 2*svc, 15*time.Millisecond) {
		t.Errorf("wildcard capacity: 2 calls took %v, want %v", got, 2*svc)
	}
}

// TestCapacityPerAddr: lanes keyed by replica address do not share
// capacity; without PerAddr the same calls share one pool.
func TestCapacityPerAddr(t *testing.T) {
	const svc = 10 * time.Millisecond
	twoAddrs := func(i int) *transport.Call {
		c := transport.NewCall("broker", "Publish", nil)
		c.Addr = []string{"broker/0", "broker/1"}[i%2]
		return c
	}
	lanes := capInvoker(Capacity{Target: "broker", Slots: 1, ServiceTime: svc, PerAddr: true})
	if got := burst(t, lanes, 6, twoAddrs); !within(got, 3*svc, 15*time.Millisecond) {
		t.Errorf("6 calls over 2 one-slot lanes took %v, want %v", got, 3*svc)
	}
	pooled := capInvoker(Capacity{Target: "broker", Slots: 1, ServiceTime: svc})
	if got := burst(t, pooled, 6, twoAddrs); !within(got, 6*svc, 15*time.Millisecond) {
		t.Errorf("6 calls through 1 shared slot took %v, want %v", got, 6*svc)
	}
}

// TestCapacityHonoursDeadline: a waiter whose context ends while it queues
// returns promptly with CodeDeadline and consumes no capacity, and one
// abandoned in service returns at its deadline, not at the service's end.
func TestCapacityHonoursDeadline(t *testing.T) {
	const svc = 100 * time.Millisecond
	inv := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
	call := func() *transport.Call { return transport.NewCall("store", "Put", nil) }

	holder := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		inv(context.Background(), call()) //nolint:errcheck // checked through its finish time
		holder <- time.Since(start)
	}()
	time.Sleep(10 * time.Millisecond) // let the holder take the slot

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := inv(ctx, call())
	if !transport.IsCode(err, transport.CodeDeadline) {
		t.Fatalf("queued waiter: err = %v, want CodeDeadline", err)
	}
	if waited := time.Since(start); waited > 60*time.Millisecond {
		t.Fatalf("queued waiter returned after %v, want ~20ms — it sat out the holder's service", waited)
	}
	// The next call starts when the holder departs: the expired waiter
	// booked nothing.
	if err := inv(context.Background(), call()); err != nil {
		t.Fatal(err)
	}
	if done := time.Since(start); !within(done, 2*svc, 30*time.Millisecond) {
		t.Fatalf("call behind an expired waiter finished at %v, want %v", done, 2*svc)
	}
	if d := <-holder; !within(d, svc, 30*time.Millisecond) {
		t.Fatalf("holder finished at %v, want %v", d, svc)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	t0 := time.Now()
	if err := inv(ctx2, call()); !transport.IsCode(err, transport.CodeDeadline) {
		t.Fatalf("call abandoned in service: err = %v, want CodeDeadline", err)
	}
	if d := time.Since(t0); d > 60*time.Millisecond {
		t.Fatalf("call abandoned in service returned after %v, want ~10ms", d)
	}
}

// TestCapacityInterceptor: the server-side adapter makes each server its
// own fixed-capacity instance.
func TestCapacityInterceptor(t *testing.T) {
	const svc = 10 * time.Millisecond
	n := rpc.NewMem()
	c := Capacity{Method: "Echo", Slots: 1, ServiceTime: svc}
	var clients []*rpc.Client
	for _, addr := range []string{"kv/0", "kv/1"} {
		startEcho(t, n, addr).Use(c.Interceptor())
		cl := rpc.NewClient(n, "test", addr)
		t.Cleanup(func() { cl.Close() })
		clients = append(clients, cl)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := clients[i%2].CallRaw(context.Background(), "Echo", []byte("x")); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if got := time.Since(start); !within(got, 3*svc, 15*time.Millisecond) {
		t.Errorf("6 calls over 2 one-slot servers took %v, want %v", got, 3*svc)
	}
}

// TestOpenLoopChargesTheQueue drives a one-slot Capacity at twice its rate.
// Open loop, the offered load is the schedule's even though the server is
// saturated, and the driver's p50 — counted from each scheduled instant —
// grows with the run length as the backlog does. One closed-loop worker on
// the same server sends only when the last reply is in, so every request it
// times finds the server idle and its p50 stays at ServiceTime however long
// it runs: the slowdown became lower offered load instead of latency.
func TestOpenLoopChargesTheQueue(t *testing.T) {
	const svc = 2 * time.Millisecond
	open := func(length time.Duration) loadgen.Result {
		inv := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
		sched := loadgen.Schedule(loadgen.ConstantRate{Gap: svc / 2}, length)
		res := loadgen.RunOpenLoop(context.Background(), sched, 0, func(ctx context.Context, _ loadgen.Arrival) error {
			return inv(ctx, transport.NewCall("store", "Put", nil))
		})
		if res.Issued != int64(len(sched)) || res.Completed != res.Issued {
			t.Fatalf("open loop over %v: issued %d, completed %d, want the schedule's %d", length, res.Issued, res.Completed, len(sched))
		}
		return res
	}
	// At 2× the service rate the backlog wait of the arrival at t is ~t, so
	// the median arrival waits ~length/2.
	short, long := open(100*time.Millisecond), open(200*time.Millisecond)
	if p50 := time.Duration(short.Latency.P50); p50 < 35*time.Millisecond || p50 > 80*time.Millisecond {
		t.Errorf("100ms run: p50 = %v, want ~50ms of backlog", p50)
	}
	if short.Latency.P50*3 > long.Latency.P50*2 {
		t.Errorf("p50 %v over 100ms vs %v over 200ms: the queue's growth is not in the recorded latency",
			time.Duration(short.Latency.P50), time.Duration(long.Latency.P50))
	}

	inv := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
	closed := loadgen.RunClosedLoop(context.Background(), 1, 0, 200*time.Millisecond, func(ctx context.Context, _ loadgen.Arrival) error {
		return inv(ctx, transport.NewCall("store", "Put", nil))
	})
	if p50 := time.Duration(closed.Latency.P50); p50 < svc || p50 > svc+3*time.Millisecond {
		t.Errorf("closed loop: p50 = %v, want ~%v", p50, svc)
	}
}
