package controlplane

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dsb/internal/registry"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

func TestAdmissionQueueBoundSheds(t *testing.T) {
	vtime.Run(t, func() {
		a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 2})
		ctx := context.Background()

		// Occupy the single worker.
		release, err := a.Admit(ctx)
		if err != nil {
			t.Fatalf("first admit: %v", err)
		}

		// Fill the queue with two blocked admits.
		var wg sync.WaitGroup
		queued := make(chan struct{}, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				queued <- struct{}{}
				rel, err := a.Admit(ctx)
				if err != nil {
					t.Errorf("queued admit: %v", err)
					return
				}
				rel()
			}()
		}
		<-queued
		<-queued
		vtime.Wait() // both are parked on the semaphore
		if a.queued.Value() != 2 {
			t.Fatalf("queued = %d, want 2", a.queued.Value())
		}

		// The queue is full: the next arrival is shed without blocking.
		if _, err := a.Admit(ctx); !transport.IsCode(err, transport.CodeOverloaded) {
			t.Fatalf("overfull admit err = %v, want CodeOverloaded", err)
		}
		if got := a.shedQueue.Value(); got != 1 {
			t.Fatalf("shedQueue = %d, want 1", got)
		}

		release()
		wg.Wait()
		r := a.Report()
		if r.Admitted != 3 {
			t.Fatalf("Admitted = %d, want 3", r.Admitted)
		}
		if r.Shed != 1 {
			t.Fatalf("Shed = %d, want 1", r.Shed)
		}
		if r.InFlight != 0 || r.QueueDepth != 0 {
			t.Fatalf("InFlight/QueueDepth = %d/%d, want 0/0", r.InFlight, r.QueueDepth)
		}
	})
}

func TestAdmissionDeadlineBudgetSheds(t *testing.T) {
	vtime.Run(t, func() {
		a := NewAdmission(AdmissionConfig{})

		// Teach the EWMA a ~10ms service time.
		rel, err := a.Admit(context.Background())
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		vtime.Advance(10 * time.Millisecond)
		rel()
		if est := a.expectedServiceTime(); est != 10*time.Millisecond {
			t.Fatalf("expectedServiceTime = %v, want 10ms", est)
		}

		// 3ms of budget < 10ms expected service time: shed.
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(3*time.Millisecond))
		defer cancel()
		if _, err := a.Admit(ctx); !transport.IsCode(err, transport.CodeOverloaded) {
			t.Fatalf("short-budget admit err = %v, want CodeOverloaded", err)
		}
		if got := a.shedOver.Value(); got != 1 {
			t.Fatalf("shedOver = %d, want 1", got)
		}

		// Ample budget is admitted.
		ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(time.Second))
		defer cancel2()
		rel2, err := a.Admit(ctx2)
		if err != nil {
			t.Fatalf("ample-budget admit: %v", err)
		}
		rel2()

		// A deadline-less request is never budget-shed.
		rel3, err := a.Admit(context.Background())
		if err != nil {
			t.Fatalf("no-deadline admit: %v", err)
		}
		rel3()
	})
}

func TestCoDelStateMachine(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	over := 20 * time.Millisecond
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

	if a.codelDrop(over, now) {
		t.Fatal("first over-target wait must only arm, not drop")
	}
	if a.codelDrop(over, now.Add(50*time.Millisecond)) {
		t.Fatal("over-target within the interval must not drop yet")
	}
	now = now.Add(110 * time.Millisecond) // a full interval above target
	if !a.codelDrop(over, now) {
		t.Fatal("a full interval above target must start dropping")
	}
	// While dropping, drops are paced: the next is scheduled
	// interval/sqrt(dropCount) later, not immediate.
	if a.codelDrop(over, now.Add(10*time.Millisecond)) {
		t.Fatal("drop before the scheduled gap")
	}
	if !a.codelDrop(over, now.Add(110*time.Millisecond)) {
		t.Fatal("second drop after the gap")
	}
	// A single below-target wait ends the episode and disarms.
	if a.codelDrop(time.Millisecond, now.Add(120*time.Millisecond)) {
		t.Fatal("below-target wait must not drop")
	}
	if a.codelDrop(over, now.Add(130*time.Millisecond)) {
		t.Fatal("after reset, an over-target wait must re-arm, not drop")
	}
}

func TestAdmissionCoDelShedsThroughAdmit(t *testing.T) {
	vtime.Run(t, func() {
		a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
		// Hold the worker so a queued request accumulates over-target wait.
		// (Admitted first: its own zero wait would otherwise reset the episode
		// installed below — exactly the disarm-on-low-delay rule CoDel wants.)
		hold, err := a.Admit(context.Background())
		if err != nil {
			t.Fatalf("hold admit: %v", err)
		}
		// Place the state machine mid-episode with the next drop due, as a
		// sustained standing queue would have.
		a.mu.Lock()
		a.dropping = true
		a.firstAbove = time.Now().Add(-time.Second)
		a.dropNext = time.Now()
		a.dropCount = 1
		a.mu.Unlock()
		done := make(chan error, 1)
		go func() {
			rel, err := a.Admit(context.Background())
			if err == nil {
				rel()
			}
			done <- err
		}()
		vtime.Wait() // queued behind the held worker
		vtime.Advance(20 * time.Millisecond)
		hold()
		if err := <-done; !transport.IsCode(err, transport.CodeOverloaded) {
			t.Fatalf("standing-queue admit err = %v, want CodeOverloaded", err)
		}
		if got := a.shedCoDel.Value(); got != 1 {
			t.Fatalf("shedCoDel = %d, want 1", got)
		}
	})
}

func TestAdmissionUtilizationReport(t *testing.T) {
	vtime.Run(t, func() {
		a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})

		// One worker busy 500ms within the 1s window across 2 workers = 0.25.
		rel, err := a.Admit(context.Background())
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		vtime.Advance(500 * time.Millisecond)
		rel()
		vtime.Advance(100 * time.Millisecond) // land the busy slot inside the window
		r := a.Report()
		if r.Utilization != 0.25 {
			t.Fatalf("Utilization = %v, want 0.25", r.Utilization)
		}
		if r.Workers != 2 {
			t.Fatalf("Workers = %d, want 2", r.Workers)
		}
		if r.P99Ns <= 0 || r.ServiceEWMANs <= 0 {
			t.Fatalf("P99Ns/ServiceEWMANs = %d/%d, want > 0", r.P99Ns, r.ServiceEWMANs)
		}
	})
}

func TestReportRoundTripOverRPC(t *testing.T) {
	n := rpc.NewMem()
	srv := rpc.NewServer("svc")
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 4})
	srv.Use(Interceptor(a))
	RegisterReport(srv, a)
	addr, err := srv.Start(n, "svc:1")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	rel()

	cl := rpc.NewClient(n, "svc", addr)
	defer cl.Close()
	r, err := FetchReport(context.Background(), cl, time.Second)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if r.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", r.Workers)
	}
	if r.Admitted != 1 {
		t.Fatalf("Admitted = %d, want 1 (report method itself must bypass admission)", r.Admitted)
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := UtilizationThreshold{Up: 0.75, Down: 0.2}
	base := Aggregate{Replicas: 2, Reporting: 2, Workers: 4}

	hot := base
	hot.Utilization = 0.9
	if got := p.Desired(hot); got != 3 {
		t.Fatalf("hot desired = %d, want 3", got)
	}
	cold := base
	cold.Utilization = 0.1
	if got := p.Desired(cold); got != 1 {
		t.Fatalf("cold desired = %d, want 1", got)
	}
	mid := base
	mid.Utilization = 0.5
	if got := p.Desired(mid); got != 2 {
		t.Fatalf("mid desired = %d, want 2", got)
	}
	if got := p.Desired(Aggregate{Replicas: 2}); got != 2 {
		t.Fatalf("no-report desired = %d, want hold at 2", got)
	}
}

// TestFig18UpstreamMisScaling reproduces the paper's Fig 18 trap in
// miniature: an upstream tier whose workers are saturated because they are
// BLOCKED on a slow downstream — high utilization, long sojourn, but no
// local queue and no sheds. The utilization-threshold policy mis-scales it;
// the latency-aware policy holds, and instead scales the genuinely
// backlogged downstream tier.
func TestFig18UpstreamMisScaling(t *testing.T) {
	upstream := Aggregate{
		Service: "upstream", Replicas: 2, Reporting: 2,
		Workers:     4,
		Utilization: 0.95,                   // workers occupied...
		P99:         80 * time.Millisecond,  // ...with slow calls...
		QueueP99:    200 * time.Microsecond, // ...but nothing waits locally
		QueueDepth:  0,
		ShedPerSec:  0,
		RatePerSec:  50,
		ServiceTime: 80 * time.Millisecond, // inflated by downstream wait
	}
	downstream := Aggregate{
		Service: "downstream", Replicas: 2, Reporting: 2,
		Workers:     4,
		Utilization: 0.97,
		P99:         60 * time.Millisecond,
		QueueP99:    30 * time.Millisecond, // real local backlog
		QueueDepth:  40,
		ShedPerSec:  25, // refusing work it cannot serve
		RatePerSec:  90,
		ServiceTime: 8 * time.Millisecond,
	}

	threshold := UtilizationThreshold{Up: 0.75, Down: 0.2}
	if got := threshold.Desired(upstream); got <= upstream.Replicas {
		t.Fatalf("threshold on upstream = %d; expected mis-scale above %d (the Fig 18 failure this test documents)",
			got, upstream.Replicas)
	}

	latency := LatencyAware{QoS: 100 * time.Millisecond}
	if got := latency.Desired(upstream); got != upstream.Replicas {
		t.Fatalf("latency-aware on upstream = %d, want hold at %d (no local congestion)",
			got, upstream.Replicas)
	}
	if got := latency.Desired(downstream); got <= downstream.Replicas {
		t.Fatalf("latency-aware on downstream = %d, want > %d (sheds + queue wait demand capacity)",
			got, downstream.Replicas)
	}
}

func TestLatencyAwareScaleDownGuards(t *testing.T) {
	p := LatencyAware{QoS: 100 * time.Millisecond}
	idle := Aggregate{
		Replicas: 4, Reporting: 4, Workers: 4,
		Utilization: 0.05, RatePerSec: 10,
		P99: 5 * time.Millisecond, ServiceTime: 2 * time.Millisecond,
	}
	if got := p.Desired(idle); got != 3 {
		t.Fatalf("idle desired = %d, want 3 (one step down)", got)
	}
	// Same tier but p99 near QoS: hold even though idle.
	risky := idle
	risky.P99 = 90 * time.Millisecond
	if got := p.Desired(risky); got != 4 {
		t.Fatalf("latency-risky desired = %d, want hold at 4", got)
	}
	// Unbounded workers: never scaled.
	if got := p.Desired(Aggregate{Replicas: 2, Reporting: 2}); got != 2 {
		t.Fatalf("unbounded desired = %d, want 2", got)
	}
}

// fakeSpawner tracks spawn/stop calls and keeps the registry in sync the
// way a real spawner (core.App) would.
type fakeSpawner struct {
	reg  *registry.Registry
	mu   sync.Mutex
	next int
	ops  []string
}

func (f *fakeSpawner) Spawn(service string) (string, error) {
	f.mu.Lock()
	f.next++
	addr := fmt.Sprintf("%s:%02d", service, f.next)
	f.ops = append(f.ops, "spawn "+addr)
	f.mu.Unlock()
	f.reg.Register(service, addr)
	return addr, nil
}

func (f *fakeSpawner) Stop(service, addr string) error {
	f.mu.Lock()
	f.ops = append(f.ops, "stop "+addr)
	f.mu.Unlock()
	f.reg.Deregister(service, addr)
	return nil
}

func TestControllerTickReconciles(t *testing.T) {
	reg := registry.New()
	sp := &fakeSpawner{reg: reg}
	if _, err := sp.Spawn("tier"); err != nil {
		t.Fatal(err)
	}

	// Reports the controller "fetches": mutable so phases can shift load.
	var mu sync.Mutex
	report := LoadReport{Workers: 4, Utilization: 0.9}
	c := NewController(ControllerConfig{
		Registry: reg,
		Spawner:  sp,
		Policy:   UtilizationThreshold{Up: 0.75, Down: 0.2},
		Services: []ManagedService{{Name: "tier", Min: 1, Max: 3}},
		fetch: func(ctx context.Context, service, addr string) (LoadReport, error) {
			mu.Lock()
			defer mu.Unlock()
			return report, nil
		},
	})

	// Hot: one replica added per tick until Max.
	for i, want := range []int{2, 3, 3} {
		d := c.Tick()[0]
		if d.To != want {
			t.Fatalf("tick %d: To = %d (%s), want %d", i, d.To, d.Reason, want)
		}
	}
	if got := len(reg.Lookup("tier")); got != 3 {
		t.Fatalf("live replicas = %d, want 3 (clamped at Max)", got)
	}

	// Cold: drains back to Min one per tick, stopping newest first.
	mu.Lock()
	report.Utilization = 0.05
	mu.Unlock()
	for i, want := range []int{2, 1, 1} {
		d := c.Tick()[0]
		if d.To != want {
			t.Fatalf("cold tick %d: To = %d (%s), want %d", i, d.To, d.Reason, want)
		}
	}
	addrs := reg.Lookup("tier")
	if len(addrs) != 1 || addrs[0] != "tier:01" {
		t.Fatalf("survivors = %v, want the founding replica tier:01", addrs)
	}
	if h := c.History("tier"); len(h) != 6 || h[0] != 1 || h[2] != 3 {
		t.Fatalf("history = %v, want [1 2 3 3 3 2]", h)
	}

	sp.mu.Lock()
	ops := strings.Join(sp.ops, ", ")
	sp.mu.Unlock()
	want := "spawn tier:01, spawn tier:02, spawn tier:03, stop tier:03, stop tier:02"
	if ops != want {
		t.Fatalf("ops = %q, want %q", ops, want)
	}
}

func TestControllerHoldsOnMuteReplicas(t *testing.T) {
	reg := registry.New()
	sp := &fakeSpawner{reg: reg}
	if _, err := sp.Spawn("tier"); err != nil {
		t.Fatal(err)
	}
	c := NewController(ControllerConfig{
		Registry: reg,
		Spawner:  sp,
		Policy:   UtilizationThreshold{},
		Services: []ManagedService{{Name: "tier", Min: 1, Max: 3}},
		fetch: func(ctx context.Context, service, addr string) (LoadReport, error) {
			return LoadReport{}, fmt.Errorf("probe timeout")
		},
	})
	d := c.Tick()[0]
	if d.From != 1 || d.To != 1 {
		t.Fatalf("decision = %+v, want hold at 1 when no replica reports", d)
	}
}

// TestOverloadRoundTripOverREST mirrors the rpc-side overload tests across
// the REST boundary: a shed from the admission adapter leaves the server as
// HTTP 429, and the client must decode it back to CodeOverloaded so the
// resilience stack treats it as a healthy shed — retried without consuming
// the retry budget, and invisible to the breaker's failure count.
func TestOverloadRoundTripOverREST(t *testing.T) {
	vtime.Run(t, func() {
		n := rpc.NewMem()
		a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
		srv := rest.NewServer("svc")
		srv.Use(RESTInterceptor(a))
		entered := make(chan struct{}, 2)
		release := make(chan struct{})
		srv.Handle("GET /slow", func(ctx *rest.Ctx, body []byte) (any, error) {
			entered <- struct{}{}
			<-release
			return nil, nil
		})
		addr, err := srv.Start(n, "svc:1")
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		defer srv.Close()

		var stats transport.Stats
		cl := rest.NewClient(n, "svc", addr, rest.WithMiddleware(
			transport.Retry(transport.RetryConfig{Attempts: 3, Stats: &stats}),
			transport.Breaker(transport.BreakerConfig{Failures: 1, Stats: &stats}),
		))
		defer cl.Close()

		ctx := context.Background()
		var held sync.WaitGroup
		// Occupy the single worker, then the single queue slot.
		held.Add(1)
		go func() {
			defer held.Done()
			if err := cl.Do(ctx, "GET", "/slow", nil, nil); err != nil {
				t.Errorf("held request: %v", err)
			}
		}()
		<-entered
		held.Add(1)
		go func() {
			defer held.Done()
			if err := cl.Do(ctx, "GET", "/slow", nil, nil); err != nil {
				t.Errorf("queued request: %v", err)
			}
		}()
		vtime.Wait()
		if a.Report().QueueDepth != 1 {
			t.Fatal("second request never queued")
		}

		// Every further request sheds. Fire enough that, were overload charged
		// to the retry budget, the default burst of 10 would drain and
		// RetryBudgetExhausted would fire.
		const shedCalls = 8
		for i := 0; i < shedCalls; i++ {
			err := cl.Do(ctx, "GET", "/slow", nil, nil)
			if !transport.IsCode(err, transport.CodeOverloaded) {
				t.Fatalf("shed request error = %v, want CodeOverloaded round-tripped via 429", err)
			}
			if !transport.Retryable(err) {
				t.Fatalf("decoded shed %v not retryable — lb failover would skip healthy replicas", err)
			}
		}

		// Each shed call burned all three attempts, exempt from the budget...
		if got, want := stats.Retries.Value(), int64(shedCalls*2); got != want {
			t.Fatalf("Retries = %d, want %d (overload retried without budget tokens)", got, want)
		}
		if got := stats.RetryBudgetExhausted.Value(); got != 0 {
			t.Fatalf("RetryBudgetExhausted = %d, want 0 (overload is budget-exempt)", got)
		}
		// ...and none of them counted as a breaker failure (Failures: 1 would
		// have tripped on the first one).
		if got := stats.BreakerOpened.Value(); got != 0 {
			t.Fatalf("breaker opened %d times after %d sheds, want closed (sheds are healthy)", got, shedCalls)
		}

		close(release)
		held.Wait()
		if got := a.Report().Shed; got < shedCalls {
			t.Fatalf("server recorded %d sheds, want >= %d", got, shedCalls)
		}
	})
}
