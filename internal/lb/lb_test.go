package lb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

// TestLeaseExpiryEjectsBackend wires FollowRegistry to a registry with
// health leases: when a crashed replica's lease expires, the balancer must
// drop it from rotation within one lease TTL — no probing, no failed calls
// required — while the healthy replica keeps serving.
func TestLeaseExpiryEjectsBackend(t *testing.T) {
	vtime.Run(t, func() {
		net := rpc.NewMem()
		addrs, stop := startInstances(t, net, 2)
		defer stop()
		reg := registry.New()
		const ttl = 60 * time.Millisecond
		healthy := reg.RegisterLease("svc", addrs[0], ttl)
		crashed := reg.RegisterLease("svc", addrs[1], ttl)

		b := New(net, "svc", reg.Lookup("svc"), &RoundRobin{})
		defer b.Close()
		unfollow := make(chan struct{})
		defer close(unfollow)
		go b.FollowRegistry(reg, unfollow)

		// Heartbeat the healthy replica; let the crashed one's lease lapse.
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			tick := time.NewTicker(ttl / 3)
			defer tick.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					healthy.Renew()
				}
			}
		}()

		// One TTL after the crash (lease armed at RegisterLease above), and no
		// sooner, the backend set shrinks to the healthy replica.
		vtime.Advance(ttl - time.Nanosecond)
		if got := b.Backends(); len(got) != 2 {
			t.Fatalf("backends = %v inside the lease TTL, want both", got)
		}
		vtime.Advance(time.Nanosecond)
		vtime.Wait()
		if got := b.Backends(); len(got) != 1 || got[0] != addrs[0] {
			t.Fatalf("backends = %v after a lease TTL, want only %s", got, addrs[0])
		}
		if !crashed.Expired() {
			t.Fatal("crashed lease should be expired")
		}

		// Every subsequent pick lands on the survivor.
		for i := 0; i < 10; i++ {
			var resp whoResp
			if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Instance != "inst-0" {
				t.Fatalf("pick %d routed to crashed backend %s", i, resp.Instance)
			}
		}
	})
}

type whoResp struct{ Instance string }

// startInstances boots n echo servers that identify themselves; stop closes
// them.
func startInstances(t testing.TB, net rpc.Network, n int) (addrs []string, stop func()) {
	t.Helper()
	addrs = make([]string, n)
	var servers []*rpc.Server
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("inst-%d", i)
		s := rpc.NewServer("svc")
		s.Handle("Who", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			return codec.Marshal(whoResp{Instance: name})
		})
		s.Handle("Slow", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			vtime.Advance(30 * time.Millisecond)
			return codec.Marshal(whoResp{Instance: name})
		})
		addr, err := s.Start(net, fmt.Sprintf("svc/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs[i] = addr
	}
	return addrs, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 3)
	defer stop()
	b := New(net, "svc", addrs, &RoundRobin{})
	defer b.Close()
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		var resp whoResp
		if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
			t.Fatal(err)
		}
		counts[resp.Instance]++
	}
	if len(counts) != 3 {
		t.Fatalf("instances hit = %v", counts)
	}
	for inst, c := range counts {
		if c != 10 {
			t.Fatalf("round robin uneven: %s = %d", inst, c)
		}
	}
}

func TestNoBackends(t *testing.T) {
	b := New(rpc.NewMem(), "svc", nil, &RoundRobin{})
	defer b.Close()
	err := b.Call(context.Background(), "Who", nil, nil)
	if !rpc.IsCode(err, rpc.CodeUnavailable) {
		t.Fatalf("want CodeUnavailable, got %v", err)
	}
}

func TestAddRemoveBackend(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 2)
	defer stop()
	b := New(net, "svc", addrs[:1], &RoundRobin{})
	defer b.Close()
	b.AddBackend(addrs[1])
	b.AddBackend(addrs[1]) // idempotent
	if got := b.Backends(); len(got) != 2 {
		t.Fatalf("Backends = %v", got)
	}
	b.RemoveBackend(addrs[0])
	if got := b.Backends(); len(got) != 1 || got[0] != addrs[1] {
		t.Fatalf("after remove = %v", got)
	}
	var resp whoResp
	if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Instance != "inst-1" {
		t.Fatalf("routed to removed backend: %s", resp.Instance)
	}
}

func TestLeastConnAvoidsBusy(t *testing.T) {
	vtime.Run(t, func() {
		net := rpc.NewMem()
		addrs, stop := startInstances(t, net, 2)
		defer stop()
		b := New(net, "svc", addrs, LeastConn{})
		defer b.Close()

		// Stagger three slow calls so least-conn assigns them 0, 1, 0 (ties go
		// to the lowest index), leaving outstanding = (2, 1). Fast calls issued
		// while they run must all land on the less-loaded backend 1.
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp whoResp
				b.Call(context.Background(), "Slow", nil, &resp) //nolint:errcheck
			}()
			vtime.Wait() // the call is in its handler
		}
		counts := map[string]int{}
		for i := 0; i < 5; i++ {
			var resp whoResp
			if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
				t.Fatal(err)
			}
			counts[resp.Instance]++
		}
		wg.Wait()
		if counts["inst-1"] != 5 {
			t.Fatalf("least-conn did not prefer idle backend: %v", counts)
		}
	})
}

func TestPowerOfTwoPick(t *testing.T) {
	p := NewPowerOfTwo(42)
	if got := p.Pick(1, func(int) int64 { return 0 }); got != 0 {
		t.Fatalf("single backend pick = %d", got)
	}
	loads := []int64{100, 0, 100, 100}
	hits := make([]int, 4)
	for i := 0; i < 200; i++ {
		idx := p.Pick(4, func(i int) int64 { return loads[i] })
		hits[idx]++
	}
	// The idle backend must win every comparison it appears in (~half of
	// picks in expectation); it must clearly dominate.
	if hits[1] < 60 {
		t.Fatalf("power-of-two ignored idle backend: %v", hits)
	}
}

func TestRoundRobinPolicyCycle(t *testing.T) {
	p := &RoundRobin{}
	got := []int{}
	for i := 0; i < 6; i++ {
		got = append(got, p.Pick(3, nil))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle = %v", got)
		}
	}
}

func TestFailoverOnDeadBackend(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 2)
	defer stop()
	b := New(net, "svc", addrs, &RoundRobin{})
	defer b.Close()

	// Register a third, never-listening backend; calls picked for it must
	// fail over to a live neighbor instead of erroring.
	b.AddBackend("dead:0")
	failures := 0
	for i := 0; i < 30; i++ {
		var resp whoResp
		if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
			failures++
		}
	}
	if failures != 0 {
		t.Fatalf("%d calls failed despite failover", failures)
	}
}

func TestNoFailoverOnApplicationError(t *testing.T) {
	net := rpc.NewMem()
	var hits [2]int32
	for i := 0; i < 2; i++ {
		i := i
		s := rpc.NewServer("svc")
		s.Handle("Fail", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			atomic.AddInt32(&hits[i], 1)
			return nil, rpc.Errorf(rpc.CodeConflict, "app error")
		})
		addr, err := s.Start(net, fmt.Sprintf("svc-fail/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if i == 0 {
			b := New(net, "svc", []string{addr}, &RoundRobin{})
			t.Cleanup(func() { b.Close() })
		}
	}
	addrs := []string{"svc-fail/0", "svc-fail/1"}
	b := New(net, "svc", addrs, &RoundRobin{})
	defer b.Close()
	if err := b.Call(context.Background(), "Fail", nil, nil); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("err = %v", err)
	}
	if hits[0]+hits[1] != 1 {
		t.Fatalf("application error was retried: hits=%v", hits)
	}
}

// Stats exposes per-backend health — in-flight, totals, breaker state —
// without callers reaching into balancer internals.
func TestBackendStats(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 2)
	defer stop()
	factory := (&transport.ResilienceConfig{
		Breaker: &transport.BreakerConfig{Failures: 1, Cooldown: time.Minute},
	}).InstrumentedBackendFactory()
	b := New(net, "svc", addrs, &RoundRobin{}, WithBackendInstrument(factory))
	defer b.Close()

	for i := 0; i < 10; i++ {
		var resp whoResp
		if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
			t.Fatal(err)
		}
	}
	stats := b.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d backends, want 2", len(stats))
	}
	for _, s := range stats {
		if s.Requests != 5 {
			t.Fatalf("%s: Requests = %d, want 5 (round-robin split)", s.Addr, s.Requests)
		}
		if s.Failures != 0 || s.InFlight != 0 {
			t.Fatalf("%s: unexpected failures/in-flight: %+v", s.Addr, s)
		}
		if s.Breaker != "closed" {
			t.Fatalf("%s: breaker state = %q, want closed", s.Addr, s.Breaker)
		}
	}

	// Add a never-listening backend and route traffic: its failures show up
	// in the snapshot and its breaker trips to "open" while the healthy
	// replicas stay "closed".
	b.AddBackend("dead:0")
	for i := 0; i < 9; i++ {
		var resp whoResp
		b.Call(context.Background(), "Who", nil, &resp) //nolint:errcheck
	}
	found := false
	for _, s := range b.Stats() {
		if s.Addr != "dead:0" {
			if s.Breaker != "closed" {
				t.Fatalf("healthy backend %s breaker = %q", s.Addr, s.Breaker)
			}
			continue
		}
		found = true
		if s.Failures == 0 {
			t.Fatalf("dead backend shows no failures: %+v", s)
		}
		if s.Breaker != "open" {
			t.Fatalf("dead backend breaker = %q, want open", s.Breaker)
		}
	}
	if !found {
		t.Fatal("dead backend missing from stats")
	}
}

// Calls pick from an atomically published snapshot of the backend set: a
// replica joining and leaving while 8 callers run must lose no call — one
// caught on the leaving replica's closed client fails over to a neighbour.
func TestMembershipChurnLosesNoCall(t *testing.T) {
	net := rpc.NewMem()
	addrs, stopServers := startInstances(t, net, 3)
	defer stopServers()
	b := New(net, "svc", addrs[:2], &RoundRobin{})
	defer b.Close()

	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.AddBackend(addrs[2])
			b.RemoveBackend(addrs[2])
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var resp whoResp
				if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
					t.Errorf("call lost during churn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churned

	for _, s := range b.Stats() {
		if s.InFlight != 0 {
			t.Errorf("%s: %d in flight after every call returned", s.Addr, s.InFlight)
		}
	}
	if got := b.Backends(); len(got) != 2 {
		t.Errorf("backends after churn = %v, want the two stable replicas", got)
	}
}
