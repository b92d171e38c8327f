package fault

import (
	"context"
	"sync"
	"testing"
	"time"

	"dsb/internal/loadgen"
	"dsb/internal/rpc"
	"dsb/internal/transport"
	"dsb/internal/vtime"
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

// TestCapacitySlots: N concurrent calls through k slots finish in
// ceil(N/k) × ServiceTime, to the nanosecond.
func TestCapacitySlots(t *testing.T) {
	vtime.Run(t, func() {
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
			if got := burst(t, inv, tc.n, call); got != tc.want {
				t.Errorf("%d calls through %d slots took %v, want %v", tc.n, tc.slots, got, tc.want)
			}
		}
	})
}

// TestCapacityMatching: calls to another target or method pass untouched,
// and empty Target/Method match everything.
func TestCapacityMatching(t *testing.T) {
	vtime.Run(t, func() {
		const svc = 30 * time.Millisecond
		inv := capInvoker(Capacity{Target: "store", Method: "Put", Slots: 1, ServiceTime: svc})
		got := burst(t, inv, 8, func(i int) *transport.Call {
			if i%2 == 0 {
				return transport.NewCall("other", "Put", nil)
			}
			return transport.NewCall("store", "Get", nil)
		})
		if got != 0 {
			t.Errorf("8 non-matching calls took %v, want no time at all", got)
		}
		any := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
		if got := burst(t, any, 2, func(int) *transport.Call { return transport.NewCall("x", "Y", nil) }); got != 2*svc {
			t.Errorf("wildcard capacity: 2 calls took %v, want %v", got, 2*svc)
		}
	})
}

// TestCapacityPerAddr: lanes keyed by replica address do not share
// capacity; without PerAddr the same calls share one pool.
func TestCapacityPerAddr(t *testing.T) {
	vtime.Run(t, func() {
		const svc = 10 * time.Millisecond
		twoAddrs := func(i int) *transport.Call {
			c := transport.NewCall("broker", "Publish", nil)
			c.Addr = []string{"broker/0", "broker/1"}[i%2]
			return c
		}
		lanes := capInvoker(Capacity{Target: "broker", Slots: 1, ServiceTime: svc, PerAddr: true})
		if got := burst(t, lanes, 6, twoAddrs); got != 3*svc {
			t.Errorf("6 calls over 2 one-slot lanes took %v, want %v", got, 3*svc)
		}
		pooled := capInvoker(Capacity{Target: "broker", Slots: 1, ServiceTime: svc})
		if got := burst(t, pooled, 6, twoAddrs); got != 6*svc {
			t.Errorf("6 calls through 1 shared slot took %v, want %v", got, 6*svc)
		}
	})
}

// TestCapacityHonoursDeadline: a waiter whose context ends while it queues
// returns promptly with CodeDeadline and consumes no capacity, and one
// abandoned in service returns at its deadline, not at the service's end.
func TestCapacityHonoursDeadline(t *testing.T) {
	vtime.Run(t, func() {
		const svc = 100 * time.Millisecond
		inv := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
		call := func() *transport.Call { return transport.NewCall("store", "Put", nil) }

		holder := make(chan time.Duration, 1)
		start := time.Now()
		go func() {
			inv(context.Background(), call()) //nolint:errcheck // checked through its finish time
			holder <- time.Since(start)
		}()
		vtime.Advance(10 * time.Millisecond) // the holder is 10ms into its service

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		err := inv(ctx, call())
		if !transport.IsCode(err, transport.CodeDeadline) {
			t.Fatalf("queued waiter: err = %v, want CodeDeadline", err)
		}
		if waited := time.Since(start); waited != 20*time.Millisecond {
			t.Fatalf("queued waiter returned at %v, want at its deadline, 20ms — it sat out the holder's service", waited)
		}
		// The next call starts when the holder departs: the expired waiter
		// booked nothing.
		if err := inv(context.Background(), call()); err != nil {
			t.Fatal(err)
		}
		if done := time.Since(start); done != 2*svc {
			t.Fatalf("call behind an expired waiter finished at %v, want %v", done, 2*svc)
		}
		if d := <-holder; d != svc {
			t.Fatalf("holder finished at %v, want %v", d, svc)
		}

		ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel2()
		t0 := time.Now()
		if err := inv(ctx2, call()); !transport.IsCode(err, transport.CodeDeadline) {
			t.Fatalf("call abandoned in service: err = %v, want CodeDeadline", err)
		}
		if d := time.Since(t0); d != 10*time.Millisecond {
			t.Fatalf("call abandoned in service returned after %v, want 10ms", d)
		}
	})
}

// TestCapacityInterceptor: the server-side adapter makes each server its
// own fixed-capacity instance.
func TestCapacityInterceptor(t *testing.T) {
	vtime.Run(t, func() {
		const svc = 10 * time.Millisecond
		n := rpc.NewMem()
		c := Capacity{Method: "Echo", Slots: 1, ServiceTime: svc}
		var clients []*rpc.Client
		for _, addr := range []string{"kv/0", "kv/1"} {
			srv := startEcho(t, n, addr)
			defer srv.Close()
			srv.Use(c.Interceptor())
			cl := rpc.NewClient(n, "test", addr)
			defer cl.Close()
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
		if got := time.Since(start); got != 3*svc {
			t.Errorf("6 calls over 2 one-slot servers took %v, want %v", got, 3*svc)
		}
	})
}

// TestOpenLoopChargesTheQueue drives a one-slot Capacity at twice its rate.
// Open loop, the offered load is the schedule's even though the server is
// saturated, and the driver's p50 — counted from each scheduled instant —
// grows with the run length as the backlog does. One closed-loop worker on
// the same server sends only when the last reply is in, so every request it
// times finds the server idle and its p50 stays at ServiceTime however long
// it runs: the slowdown became lower offered load instead of latency.
func TestOpenLoopChargesTheQueue(t *testing.T) {
	vtime.Run(t, func() {
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
		// At 2× the service rate the arrival at t finishes t+svc later, so the
		// median arrival of a run waits half the run (in the histogram's
		// bucket of it).
		short, long := open(100*time.Millisecond), open(200*time.Millisecond)
		if p50 := time.Duration(short.Latency.P50); p50 < 50*time.Millisecond || p50 > 53*time.Millisecond {
			t.Errorf("100ms run: p50 = %v, want 50ms of backlog", p50)
		}
		if p50 := time.Duration(long.Latency.P50); p50 < 100*time.Millisecond || p50 > 106*time.Millisecond {
			t.Errorf("200ms run: p50 = %v, want 100ms: the queue's growth is not in the recorded latency", p50)
		}

		inv := capInvoker(Capacity{Slots: 1, ServiceTime: svc})
		closed := loadgen.RunClosedLoop(context.Background(), 1, 0, 200*time.Millisecond, func(ctx context.Context, _ loadgen.Arrival) error {
			return inv(ctx, transport.NewCall("store", "Put", nil))
		})
		if p50 := time.Duration(closed.Latency.P50); p50 != svc {
			t.Errorf("closed loop: p50 = %v, want %v", p50, svc)
		}
	})
}
