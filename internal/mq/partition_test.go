package mq

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/vtime"
)

// partRig is a partitioned broker tier bootstrapped outside svcutil: real
// brokers behind real RPC servers, grouped into replica sets by MetaShard
// labels, with direct handles for white-box assertions and crash injection.
type partRig struct {
	net     rpc.Network
	reg     *registry.Registry
	router  *shard.Router
	cluster *Cluster
	// brokers[s][r] / servers[s][r] / addrs[s][r] index shard s, replica r.
	brokers [][]*Broker
	servers [][]*rpc.Server
	addrs   [][]string
}

func bootPartitioned(t *testing.T, shards, replicas int) (*partRig, *Partitioned) {
	t.Helper()
	rig := &partRig{
		net:     rpc.NewMem(),
		reg:     registry.New(),
		cluster: NewCluster(),
	}
	for s := 0; s < shards; s++ {
		var bs []*Broker
		var srvs []*rpc.Server
		var as []string
		for r := 0; r < replicas; r++ {
			b := NewBroker()
			srv := rpc.NewServer("broker")
			RegisterService(srv, b)
			addr, err := srv.Start(rig.net, fmt.Sprintf("broker/s%d-r%d", s, r))
			if err != nil {
				t.Fatal(err)
			}
			rig.reg.RegisterInstance("broker", addr, map[string]string{shard.MetaShard: strconv.Itoa(s)})
			rig.cluster.Add(b)
			bs, srvs, as = append(bs, b), append(srvs, srv), append(as, addr)
		}
		rig.brokers = append(rig.brokers, bs)
		rig.servers = append(rig.servers, srvs)
		rig.addrs = append(rig.addrs, as)
	}
	rig.router = shard.NewRouter(rig.net, "broker")
	rig.router.Sync(rig.reg.Instances("broker"))
	return rig, NewPartitioned(rig.router)
}

// stop closes the router and every broker server still up.
func (rig *partRig) stop() {
	rig.router.Close()
	for _, srvs := range rig.servers {
		for _, srv := range srvs {
			srv.Close()
		}
	}
}

// crash kills shard s replica r: the server goes away (its broker closes
// with it) and the registry eviction propagates to the router — the same
// sequence a health-lease expiry drives in a live app.
func (rig *partRig) crash(s, r int) {
	rig.servers[s][r].Close()
	rig.reg.Deregister("broker", rig.addrs[s][r])
	rig.router.Sync(rig.reg.Instances("broker"))
}

// primary returns the index of shard s's current primary (lowest addr),
// mirroring the deterministic-primary rule clients use.
func (rig *partRig) primary(s int) int {
	p := 0
	for r := 1; r < len(rig.addrs[s]); r++ {
		if rig.addrs[s][r] < rig.addrs[s][p] {
			p = r
		}
	}
	return p
}

// TestPartitionedRoundTrip drives the full partitioned lifecycle: keyed
// publishes spread over shards and mirror to every replica, consumes drain
// every message exactly once across shard primaries, and key-addressed acks
// retire primary and mirror copies alike.
func TestPartitionedRoundTrip(t *testing.T) {
	vtime.Run(t, func() {
		rig, bus := bootPartitioned(t, 2, 2)
		defer rig.stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		const n = 16
		for i := 0; i < n; i++ {
			if _, err := bus.PublishKey(ctx, "t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
		// Both shards should own a slice of the keyspace, and each copy must be
		// mirrored: every replica of a shard holds its primary's messages.
		for s := 0; s < 2; s++ {
			lens := make([]int, 2)
			for r := 0; r < 2; r++ {
				lens[r] = rig.brokers[s][r].Queue("t@g").Len()
			}
			if lens[0] != lens[1] {
				t.Fatalf("shard %d replicas diverge: %v", s, lens)
			}
			if lens[0] == 0 {
				t.Fatalf("shard %d owns no keys; partitioning is degenerate", s)
			}
		}

		got := make(map[string]string, n)
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < n {
			if time.Now().After(deadline) {
				t.Fatalf("drained %d/%d messages", len(got), n)
			}
			msg, err := bus.Consume(ctx, "t", "g", time.Minute, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("consume: %v", err)
			}
			if !msg.OK {
				continue
			}
			if _, dup := got[msg.Key]; dup {
				t.Fatalf("key %q delivered twice", msg.Key)
			}
			got[msg.Key] = string(msg.Body)
			if err := bus.Ack(ctx, "t", "g", msg); err != nil {
				t.Fatalf("ack %q: %v", msg.Key, err)
			}
		}
		for i := 0; i < n; i++ {
			if got[fmt.Sprintf("k%d", i)] != fmt.Sprintf("m%d", i) {
				t.Fatalf("key k%d = %q", i, got[fmt.Sprintf("k%d", i)])
			}
		}
		// Acks settled on every replica: the whole tier — mirrors included — is
		// empty, and each of a message's two copies was retired by its settle.
		vtime.Wait() // Ack is one-way: let the settles land
		if s := rig.cluster.GroupStats("t", "g"); s.Lag() != 0 || s.Acked != 2*n {
			t.Fatalf("tier stats after drain = %+v, want lag 0 and %d acked", s, 2*n)
		}
	})
}

// TestPartitionedPublishIdempotent pins broker-side dedup: republishing a
// key (the retry path after a partial mirror failure) neither duplicates
// the message nor changes its ID.
func TestPartitionedPublishIdempotent(t *testing.T) {
	rig, bus := bootPartitioned(t, 2, 2)
	defer rig.stop()
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	id1, err := bus.PublishKey(ctx, "t", "stable", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := bus.PublishKey(ctx, "t", "stable", []byte("x"))
	if err != nil || id2 != id1 {
		t.Fatalf("republish = %d, %v; want %d, nil", id2, err, id1)
	}
	// One copy on the primary and one on its mirror, not two of each.
	if s := rig.cluster.GroupStats("t", "g"); s.Queued != 2 || s.Published != 2 {
		t.Fatalf("tier stats after republish = %+v, want 2 queued, 2 published", s)
	}
}

// TestPartitionedCrashRedelivery is the crash-window table: one shard, two
// replicas, one keyed message, and a broker crash seeded at each point of
// the message lifecycle. In every pre-ack timing the message survives on
// the mirror and is redelivered exactly once — never dropped, never
// duplicated — and in the post-ack timing the key-addressed settle has
// already retired the mirror copy, so nothing reappears.
func TestPartitionedCrashRedelivery(t *testing.T) {
	vtime.Run(t, func() {
		cases := []struct {
			name string
			// crashAt: 0 = before any consume (message queued on both),
			// 1 = after consume, before ack (leased on the dying primary),
			// 2 = after ack (settled everywhere).
			crashAt       int
			wantRedeliver bool
		}{
			{"queued-at-crash", 0, true},
			{"leased-at-crash", 1, true},
			{"acked-at-crash", 2, false},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				rig, bus := bootPartitioned(t, 1, 2)
				defer rig.stop()
				ctx := context.Background()
				if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
					t.Fatal(err)
				}
				if _, err := bus.PublishKey(ctx, "t", "k", []byte("payload")); err != nil {
					t.Fatal(err)
				}
				if tc.crashAt >= 1 {
					msg, err := bus.Consume(ctx, "t", "g", time.Minute, 200*time.Millisecond)
					if err != nil || !msg.OK || msg.Key != "k" {
						t.Fatalf("pre-crash consume = %+v, %v", msg, err)
					}
					if tc.crashAt == 2 {
						if err := bus.Ack(ctx, "t", "g", msg); err != nil {
							t.Fatal(err)
						}
						vtime.Wait() // Ack is one-way: let the settles land
					}
				}
				rig.crash(0, rig.primary(0))

				// Survivor is primary now. The mirror copy must redeliver exactly
				// once pre-ack, and must stay gone post-ack.
				redelivered := 0
				deadline := time.Now().Add(5 * time.Second)
				for time.Now().Before(deadline) && redelivered == 0 {
					msg, err := bus.Consume(ctx, "t", "g", time.Minute, 100*time.Millisecond)
					if err != nil {
						t.Fatalf("post-crash consume: %v", err)
					}
					if !msg.OK {
						if !tc.wantRedeliver {
							break // nothing should come back; empty sweep is the pass
						}
						continue
					}
					if msg.Key != "k" || string(msg.Body) != "payload" {
						t.Fatalf("redelivered %+v", msg)
					}
					redelivered++
					if err := bus.Ack(ctx, "t", "g", msg); err != nil {
						t.Fatalf("ack redelivery: %v", err)
					}
				}
				if tc.wantRedeliver && redelivered != 1 {
					t.Fatalf("redelivered %d times, want 1", redelivered)
				}
				if !tc.wantRedeliver && redelivered != 0 {
					t.Fatalf("acked message reappeared %d times", redelivered)
				}
				// Exactly once: a further sweep is empty either way.
				msg, err := bus.Consume(ctx, "t", "g", time.Minute, 100*time.Millisecond)
				if err != nil || msg.OK {
					t.Fatalf("post-drain consume = %+v, %v", msg, err)
				}
				vtime.Wait() // the redelivery's one-way Ack lands
				// The survivor's queue is fully retired. (Cluster.GroupLag would
				// still count the corpse's orphaned copy — dead brokers keep
				// their memory — which is why crash experiments assert on
				// delivered state, not on drain.)
				sq := rig.brokers[0][1-rig.primary(0)].Queue("t@g")
				if sq.Len()+sq.InFlight() != 0 {
					t.Fatalf("survivor lag = %d, want 0", sq.Len()+sq.InFlight())
				}
			})
		}
	})
}

// TestPartitionedPublishFailover pins the producer contract through a crash
// the lease has not yet evicted: the publish fails over to the surviving
// replica (the copy lands), reports the partial mirror as an error, and the
// retry with the same key succeeds idempotently once the ring re-forms —
// one copy, delivered once.
func TestPartitionedPublishFailover(t *testing.T) {
	rig, bus := bootPartitioned(t, 1, 2)
	defer rig.stop()
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	// Kill the primary's process but leave it in the ring: the lease has not
	// expired yet, so the publisher discovers the corpse by failing over.
	p := rig.primary(0)
	rig.servers[0][p].Close()
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	_, err := bus.PublishKey(cctx, "t", "k", []byte("x"))
	cancel()
	if err == nil {
		t.Fatal("publish through a dead primary reported full success")
	}
	if got := rig.brokers[0][1-p].Queue("t@g").Len(); got != 1 {
		t.Fatalf("survivor holds %d copies after failover, want 1", got)
	}
	// Lease eviction: the ring re-forms around the survivor; the producer
	// retries with the same key and now sees full success without a dup.
	rig.reg.Deregister("broker", rig.addrs[0][p])
	rig.router.Sync(rig.reg.Instances("broker"))
	if _, err := bus.PublishKey(ctx, "t", "k", []byte("x")); err != nil {
		t.Fatalf("retry after eviction: %v", err)
	}
	msg, err := bus.Consume(ctx, "t", "g", time.Minute, 200*time.Millisecond)
	if err != nil || !msg.OK || msg.Key != "k" {
		t.Fatalf("consume = %+v, %v", msg, err)
	}
	if err := bus.Ack(ctx, "t", "g", msg); err != nil {
		t.Fatal(err)
	}
	if again, err := bus.Consume(ctx, "t", "g", time.Minute, 100*time.Millisecond); err != nil || again.OK {
		t.Fatalf("duplicate after retry: %+v, %v", again, err)
	}
}
