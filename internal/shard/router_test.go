package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

type echoResp struct{ Instance string }

// startShardServers boots shards×replicas echo servers on net, registering
// each with its shard index as instance metadata, and returns addrs[shard].
func startShardServers(t testing.TB, net rpc.Network, reg *registry.Registry, shards, replicas int) (addrs [][]string, stop func()) {
	t.Helper()
	addrs = make([][]string, shards)
	var servers []*rpc.Server
	for s := 0; s < shards; s++ {
		for rep := 0; rep < replicas; rep++ {
			name := fmt.Sprintf("s%d-r%d", s, rep)
			srv := rpc.NewServer("store")
			srv.Handle("Who", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
				return codec.Marshal(echoResp{Instance: name})
			})
			addr, err := srv.Start(net, fmt.Sprintf("store/%s", name))
			if err != nil {
				t.Fatal(err)
			}
			servers = append(servers, srv)
			if reg != nil {
				reg.RegisterInstance("store", addr, map[string]string{MetaShard: strconv.Itoa(s)})
			}
			addrs[s] = append(addrs[s], addr)
		}
	}
	return addrs, func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
}

// TestRouterGroupsByShardMeta checks that Sync partitions one service name
// into replica groups by the MetaShard label and routes every key to
// exactly the owning group's replicas.
func TestRouterGroupsByShardMeta(t *testing.T) {
	net := rpc.NewMem()
	reg := registry.New()
	addrs, stop := startShardServers(t, net, reg, 4, 2)
	defer stop()

	r := NewRouter(net, "store")
	defer r.Close()
	r.Sync(reg.Instances("store"))

	if got := r.Shards(); len(got) != 4 {
		t.Fatalf("Shards() = %v, want 4 labels", got)
	}
	byShard := make(map[string]map[string]bool)
	for s := range addrs {
		set := make(map[string]bool)
		for _, a := range addrs[s] {
			set[a] = true
		}
		byShard[strconv.Itoa(s)] = set
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := r.Owner(key)
		reps := r.Route(key)
		if len(reps) != 2 {
			t.Fatalf("Route(%q) returned %d replicas, want 2", key, len(reps))
		}
		for _, rep := range reps {
			if rep.Shard() != owner {
				t.Fatalf("Route(%q) replica shard %s, owner %s", key, rep.Shard(), owner)
			}
			if !byShard[owner][rep.Addr()] {
				t.Fatalf("Route(%q) replica addr %s not in shard %s", key, rep.Addr(), owner)
			}
		}
	}
}

// TestRouterReadRotation checks that consecutive routes of the same key
// rotate the replica read order, spreading read load across the set while
// keeping the full set available as fallbacks.
func TestRouterReadRotation(t *testing.T) {
	net := rpc.NewMem()
	reg := registry.New()
	_, stop := startShardServers(t, net, reg, 1, 3)
	defer stop()
	r := NewRouter(net, "store")
	defer r.Close()
	r.Sync(reg.Instances("store"))

	heads := make(map[string]bool)
	for i := 0; i < 9; i++ {
		reps := r.Route("same-key")
		if len(reps) != 3 {
			t.Fatalf("want 3 replicas, got %d", len(reps))
		}
		heads[reps[0].Addr()] = true
		seen := map[string]bool{}
		for _, rep := range reps {
			seen[rep.Addr()] = true
		}
		if len(seen) != 3 {
			t.Fatalf("route %d contains duplicates: %v", i, reps)
		}
	}
	if len(heads) != 3 {
		t.Fatalf("read rotation used %d distinct heads, want 3", len(heads))
	}
}

// TestRouterCallStampsAddr checks the live call path: Replica.Call reaches
// the right server through the middleware chain, and the call is stamped
// with the replica address before the chain runs so per-replica fault rules
// can match it.
func TestRouterCallStampsAddr(t *testing.T) {
	net := rpc.NewMem()
	reg := registry.New()
	addrs, stop := startShardServers(t, net, reg, 2, 1)
	defer stop()

	var mu sync.Mutex
	seen := make(map[string]string) // addr stamped on call -> replica mw addr
	r := NewRouter(net, "store",
		WithMiddleware(func(next transport.Invoker) transport.Invoker {
			return func(ctx context.Context, call *transport.Call) error {
				mu.Lock()
				seen[call.Addr] = ""
				mu.Unlock()
				return next(ctx, call)
			}
		}),
		WithReplicaMiddleware(func(addr string) []transport.Middleware {
			return []transport.Middleware{func(next transport.Invoker) transport.Invoker {
				return func(ctx context.Context, call *transport.Call) error {
					mu.Lock()
					seen[call.Addr] = addr
					mu.Unlock()
					return next(ctx, call)
				}
			}}
		}),
	)
	defer r.Close()
	r.Sync(reg.Instances("store"))

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := r.Route(key)
		var resp echoResp
		if err := reps[0].Call(context.Background(), "Who", nil, &resp); err != nil {
			t.Fatal(err)
		}
		wantShard := "s0"
		if reps[0].Addr() == addrs[1][0] {
			wantShard = "s1"
		}
		if resp.Instance != wantShard+"-r0" {
			t.Fatalf("key %q answered by %s, routed to %s", key, resp.Instance, reps[0].Addr())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("middleware never saw a call")
	}
	for callAddr, mwAddr := range seen {
		if callAddr == "" {
			t.Fatal("call reached middleware without a stamped Addr")
		}
		if mwAddr != callAddr {
			t.Fatalf("replica middleware built for %s saw call stamped %s", mwAddr, callAddr)
		}
	}
}

// TestRouterLeaseEvictionReformsRing is the registry-driven membership
// contract: when every replica of a shard lets its health lease lapse, the
// ring must re-form without the dead shard within one TTL — keys remap to
// surviving shards, and the survivors' keys do not move.
func TestRouterLeaseEvictionReformsRing(t *testing.T) {
	vtime.Run(t, func() {
		net := rpc.NewMem()
		reg := registry.New()
		addrs, stopServers := startShardServers(t, net, nil, 3, 2)
		defer stopServers()

		const ttl = 60 * time.Millisecond
		var leases []*registry.Lease
		for s := range addrs {
			for _, a := range addrs[s] {
				leases = append(leases, reg.RegisterLease("store", a, ttl,
					map[string]string{MetaShard: strconv.Itoa(s)}))
			}
		}

		r := NewRouter(net, "store")
		defer r.Close()
		stop := make(chan struct{})
		defer close(stop)
		go r.FollowRegistry(reg, stop)

		wantShards := func(n int) {
			t.Helper()
			vtime.Wait() // the router has followed the registry
			if len(r.Shards()) != n {
				t.Fatalf("shards = %v, want %d live", r.Shards(), n)
			}
		}
		wantShards(3)

		before := make(map[string]string)
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("key-%d", i)
			before[key] = r.Owner(key)
		}

		// Crash shard 1: its replicas stop heartbeating; keep the rest renewed.
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
					for i, l := range leases {
						if i/2 != 1 {
							l.Renew()
						}
					}
				}
			}
		}()
		vtime.Advance(ttl) // shard 1's leases run out
		wantShards(2)

		for key, owner := range before {
			now := r.Owner(key)
			if owner == "1" {
				if now == "1" || now == "" {
					t.Fatalf("key %q still owned by evicted shard (owner %q)", key, now)
				}
			} else if now != owner {
				t.Fatalf("key %q moved %s→%s though its shard survived", key, owner, now)
			}
		}
		// The survivors still serve their keys end to end.
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("key-%d", i)
			var resp echoResp
			if err := r.Route(key)[0].Call(context.Background(), "Who", nil, &resp); err != nil {
				t.Fatalf("post-eviction call for %q: %v", key, err)
			}
		}
	})
}

// TestRouterScatter checks the fan-out view covers every live shard once,
// in label order.
func TestRouterScatter(t *testing.T) {
	net := rpc.NewMem()
	reg := registry.New()
	_, stop := startShardServers(t, net, reg, 3, 2)
	defer stop()
	r := NewRouter(net, "store")
	defer r.Close()
	r.Sync(reg.Instances("store"))

	sets := r.Scatter()
	if len(sets) != 3 {
		t.Fatalf("Scatter() = %d groups, want 3", len(sets))
	}
	for i, reps := range sets {
		if len(reps) != 2 {
			t.Fatalf("group %d has %d replicas, want 2", i, len(reps))
		}
		if reps[0].Shard() != strconv.Itoa(i) {
			t.Fatalf("group %d label %q, want %d (sorted)", i, reps[0].Shard(), i)
		}
	}
}
