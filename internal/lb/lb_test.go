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
	"dsb/internal/shard"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

// addrsOf lists a balancer's live replica addresses.
func addrsOf(b *Balanced) []string {
	var out []string
	for _, rep := range b.router.Replicas() {
		out = append(out, rep.Addr())
	}
	return out
}

// syncAddrs sets a balancer's replica set to addrs, unlabelled.
func syncAddrs(b *Balanced, addrs ...string) {
	instances := make([]registry.Instance, len(addrs))
	for i, addr := range addrs {
		instances[i].Addr = addr
	}
	b.router.Sync(instances)
}

// TestLeaseExpiryEjectsBackend follows a registry with health leases: when
// a crashed replica's lease expires, the balancer must drop it from
// rotation within one lease TTL — no probing, no failed calls required —
// while the healthy replica keeps serving.
func TestLeaseExpiryEjectsBackend(t *testing.T) {
	vtime.Run(t, func() {
		net := rpc.NewMem()
		addrs, stop := startInstances(t, net, 2)
		defer stop()
		reg := registry.New()
		const ttl = 60 * time.Millisecond
		healthy := reg.RegisterLease("svc", addrs[0], ttl, nil)
		crashed := reg.RegisterLease("svc", addrs[1], ttl, nil)

		b := Over(shard.NewRouter(net, "svc"))
		defer b.Close()
		unfollow := make(chan struct{})
		defer close(unfollow)
		go b.router.FollowRegistry(reg, unfollow)

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
		// sooner, the replica set shrinks to the healthy replica.
		vtime.Advance(ttl - time.Nanosecond)
		if got := addrsOf(b); len(got) != 2 {
			t.Fatalf("replicas = %v inside the lease TTL, want both", got)
		}
		vtime.Advance(time.Nanosecond)
		vtime.Wait()
		if got := addrsOf(b); len(got) != 1 || got[0] != addrs[0] {
			t.Fatalf("replicas = %v after a lease TTL, want only %s", got, addrs[0])
		}
		if crashed.Renew() {
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

// The pick cycles through the replicas in address order, whatever their
// shard labels: a balanced client over a sharded tier spreads over all of
// it.
func TestRoundRobinPolicyCycle(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 3)
	defer stop()
	router := shard.NewRouter(net, "svc")
	router.Sync([]registry.Instance{
		{Addr: addrs[2], Meta: map[string]string{shard.MetaShard: "0"}},
		{Addr: addrs[0], Meta: map[string]string{shard.MetaShard: "1"}},
		{Addr: addrs[1], Meta: map[string]string{shard.MetaShard: "0"}},
	})
	b := Over(router)
	defer b.Close()
	var got []string
	for i := 0; i < 6; i++ {
		var resp whoResp
		if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Instance)
	}
	want := []string{"inst-0", "inst-1", "inst-2", "inst-0", "inst-1", "inst-2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cycle = %v, want %v", got, want)
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
	first := b.router.Replicas()[0]
	syncAddrs(b, addrs...)
	if got := addrsOf(b); len(got) != 2 {
		t.Fatalf("replicas = %v", got)
	}
	if b.router.Replicas()[0] != first {
		t.Fatal("a Sync that kept a replica rebuilt it")
	}
	syncAddrs(b, addrs[1])
	if got := addrsOf(b); len(got) != 1 || got[0] != addrs[1] {
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

func TestFailoverOnDeadBackend(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 2)
	defer stop()
	b := New(net, "svc", addrs, &RoundRobin{})
	defer b.Close()

	// Register a third, never-listening backend; calls picked for it must
	// fail over to a live neighbor instead of erroring.
	syncAddrs(b, append(addrs, "dead:0")...)
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
		if _, err := s.Start(net, fmt.Sprintf("svc-fail/%d", i)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
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

// TestBackendStats checks what each replica's circuit breaker sees: the
// round-robin split sends healthy replicas equal shares without a trip,
// and a dead replica's breaker opens while the healthy ones stay closed —
// every call still succeeding, on failover and then on breaker rejection.
func TestBackendStats(t *testing.T) {
	net := rpc.NewMem()
	addrs, stop := startInstances(t, net, 2)
	defer stop()
	stats := &transport.Stats{}
	factory := (&transport.ResilienceConfig{
		Breaker: &transport.BreakerConfig{Failures: 1, Cooldown: time.Minute},
		Stats:   stats,
	}).BackendFactory()
	router := shard.NewRouter(net, "svc", shard.WithReplicaMiddleware(factory))
	b := Over(router)
	defer b.Close()
	syncAddrs(b, addrs...)

	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		var resp whoResp
		if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
			t.Fatal(err)
		}
		counts[resp.Instance]++
	}
	if counts["inst-0"] != 5 || counts["inst-1"] != 5 {
		t.Fatalf("round-robin split = %v, want 5 each", counts)
	}
	if got := stats.BreakerOpened.Value(); got != 0 {
		t.Fatalf("BreakerOpened = %d on healthy replicas", got)
	}

	// A never-listening replica, first in address order: its first pick
	// fails over and trips its breaker; its later picks are rejected by the
	// open breaker and fail over too. One trip, so the healthy replicas'
	// breakers stayed closed.
	syncAddrs(b, append(addrs, "dead:0")...)
	for i := 0; i < 9; i++ {
		var resp whoResp
		if err := b.Call(context.Background(), "Who", nil, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := stats.BreakerOpened.Value(); got != 1 {
		t.Fatalf("BreakerOpened = %d, want 1: the dead replica's alone", got)
	}
	if got := stats.BreakerRejected.Value(); got != 2 {
		t.Fatalf("BreakerRejected = %d, want 2: the dead replica's later picks", got)
	}
}

// Calls pick from an atomically published snapshot of the replica set: a
// replica joining and leaving while 8 callers go through Balanced and 8
// through Route on a sharded target must lose no call — one caught on the
// leaving replica's closed client fails over to a neighbour.
func TestMembershipChurnLosesNoCall(t *testing.T) {
	net := rpc.NewMem()
	addrs, stopServers := startInstances(t, net, 5)
	defer stopServers()
	inst := func(addr, label string) registry.Instance {
		return registry.Instance{Addr: addr, Meta: map[string]string{shard.MetaShard: label}}
	}
	stable := []registry.Instance{inst(addrs[0], "0"), inst(addrs[1], "0"), inst(addrs[2], "1"), inst(addrs[3], "1")}
	churn := append(stable[:4:4], inst(addrs[4], "1"))

	bal := New(net, "svc", addrs[:2], &RoundRobin{})
	defer bal.Close()
	sharded := shard.NewRouter(net, "svc")
	defer sharded.Close()
	sharded.Sync(stable)

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
			syncAddrs(bal, addrs[:3]...)
			syncAddrs(bal, addrs[:2]...)
			sharded.Sync(churn)
			sharded.Sync(stable)
		}
	}()

	call := func(f func(i int) error) func() {
		return func() {
			for i := 0; i < 300; i++ {
				if err := f(i); err != nil {
					t.Errorf("call lost during churn: %v", err)
					return
				}
			}
		}
	}
	viaBalanced := call(func(int) error {
		var resp whoResp
		return bal.Call(context.Background(), "Who", nil, &resp)
	})
	viaRoute := call(func(i int) error {
		var err error
		for _, rep := range sharded.Route(fmt.Sprintf("key-%d", i)) {
			var resp whoResp
			if err = rep.Call(context.Background(), "Who", nil, &resp); err == nil {
				return nil
			}
		}
		return err
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func() { defer wg.Done(); viaBalanced() }()
		go func() { defer wg.Done(); viaRoute() }()
	}
	wg.Wait()
	close(stop)
	<-churned

	if got := addrsOf(bal); len(got) != 2 {
		t.Errorf("replicas after churn = %v, want the two stable ones", got)
	}
	if got := len(sharded.Replicas()); got != 4 {
		t.Errorf("sharded replicas after churn = %d, want the four stable ones", got)
	}
}
