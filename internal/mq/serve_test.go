package mq

// The consumer-group worker's contract, clause by clause, over both broker
// layouts: every standing consumer in the suite is a Serve worker, so what
// holds here holds for the fanout, commit, and enrich tiers alike.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

// serveRig is one broker layout as the worker sees it.
type serveRig struct {
	bus Bus
	// stats sums the t@g group queue over every live broker instance.
	stats func() Stats
	// failover kills the instance the worker's session is attached to and
	// leaves the tier able to deliver again: a restart on the single broker
	// (its queue memory is gone), a primary crash on the replicated shard
	// (the mirror is promoted).
	failover func()
}

var serveLayouts = []struct {
	name string
	boot func(t *testing.T) *serveRig
}{
	{"single", func(t *testing.T) *serveRig {
		n := rpc.NewMem()
		var (
			mu  sync.Mutex
			b   *Broker
			srv *rpc.Server
		)
		start := func() {
			nb, ns := NewBroker(), rpc.NewServer("broker")
			RegisterService(ns, nb)
			if _, err := ns.Start(n, "broker:0"); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			b, srv = nb, ns
			mu.Unlock()
		}
		stop := func() {
			mu.Lock()
			s := srv
			mu.Unlock()
			s.Close()
		}
		start()
		t.Cleanup(stop)
		c := rpc.NewClient(n, "broker", "broker:0")
		t.Cleanup(func() { c.Close() })
		return &serveRig{
			bus: Client{C: c},
			stats: func() Stats {
				mu.Lock()
				defer mu.Unlock()
				return b.Topic("t").Subscribe("g").Stats()
			},
			failover: func() { stop(); start() },
		}
	}},
	// One shard keeps delivery order observable; two replicas give the
	// session a mirror to fail over to.
	{"partitioned", func(t *testing.T) *serveRig {
		rig, bus := bootPartitioned(t, 1, 2)
		t.Cleanup(rig.stop)
		return &serveRig{
			bus:      bus,
			stats:    func() Stats { return rig.cluster.GroupStats("t", "g") },
			failover: func() { rig.crash(0, rig.primary(0)) },
		}
	}},
}

// serveOn starts a worker on a server of its own, closed with the test.
func serveOn(t *testing.T, bus Bus, handle Handler) (*Worker, *rpc.Server) {
	t.Helper()
	srv := rpc.NewServer("consumer")
	t.Cleanup(func() { srv.Close() })
	return Serve(srv, bus, "t", "g", time.Minute, handle), srv
}

func publishKeys(t *testing.T, bus Bus, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s%03d", prefix, i)
		if _, err := bus.PublishKey(context.Background(), "t", key, []byte(key)); err != nil {
			t.Fatalf("publish %s: %v", key, err)
		}
	}
}

// quiet lets everything in motion run as far as it can without the clock
// moving — every call answered, every delivery handled and settled — and
// then requires cond.
func quiet(t *testing.T, what string, cond func() bool) {
	t.Helper()
	vtime.Wait()
	if !cond() {
		t.Fatalf("once quiet: want %s", what)
	}
}

// closeWithin fails the test unless stop returns within a second — far
// inside settleGrace, so a shutdown that only returns because its
// settle context expired fails too.
func closeWithin(t *testing.T, what string, stop func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s: close did not return", what)
	}
}

// tally is a handler's record of what it was handed.
type tally struct {
	mu       sync.Mutex
	keys     []string
	attempts []int
}

func (ta *tally) record(m ConsumeResp) {
	ta.mu.Lock()
	ta.keys = append(ta.keys, m.Key)
	ta.attempts = append(ta.attempts, m.Attempts)
	ta.mu.Unlock()
}

func (ta *tally) snapshot() (keys []string, attempts []int) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return append([]string(nil), ta.keys...), append([]int(nil), ta.attempts...)
}

func (ta *tally) len() int { keys, _ := ta.snapshot(); return len(keys) }

// Every clause runs in one bubble, which cannot return while a session, a
// per-shard loop, a context watcher or a worker is still running: that is the
// leak guard.
func TestServeContract(t *testing.T) {
	vtime.Run(t, func() {
		ctx := context.Background()
		for _, layout := range serveLayouts {
			boot := func(t *testing.T, cfg QueueConfig) *serveRig {
				t.Helper()
				rig := layout.boot(t)
				if err := rig.bus.Subscribe(ctx, "t", "g", cfg); err != nil {
					t.Fatal(err)
				}
				return rig
			}

			t.Run(layout.name+"/nil acks once", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				var got tally
				serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { got.record(m); return nil })
				publishKeys(t, rig.bus, "k", 1)
				quiet(t, "no lag", func() bool { return rig.stats().Lag() == 0 })
				if keys, _ := got.snapshot(); len(keys) != 1 || rig.stats().Redelivered != 0 {
					t.Fatalf("handled %v with %d redeliveries, want one delivery acked away", keys, rig.stats().Redelivered)
				}
			})

			t.Run(layout.name+"/error redelivers then dead-letters", func(t *testing.T) {
				rig := boot(t, QueueConfig{MaxAttempts: 3})
				var got tally
				serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { got.record(m); return errors.New("poison") })
				publishKeys(t, rig.bus, "k", 1)
				vtime.Advance(2 * nackPause) // attempts at 0, one and two pauses
				quiet(t, "one dead letter", func() bool { return rig.stats().DeadLettered == 1 })
				if _, attempts := got.snapshot(); fmt.Sprint(attempts) != "[1 2 3]" {
					t.Fatalf("attempts seen = %v, want [1 2 3] then the dead-letter queue", attempts)
				}
				if s := rig.stats(); s.InFlight != 0 {
					t.Fatalf("dead-lettered message still leased: %+v", s)
				}
			})

			t.Run(layout.name+"/one worker handles in delivery order", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				const n = 50 // past one stream window
				publishKeys(t, rig.bus, "k", n)
				var got tally
				serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { got.record(m); return nil })
				quiet(t, "all handled", func() bool { return got.len() == n })
				keys, _ := got.snapshot()
				for i, key := range keys {
					if want := fmt.Sprintf("k%03d", i); key != want {
						t.Fatalf("delivery %d = %s, want %s (publication order)", i, key, want)
					}
				}
			})

			t.Run(layout.name+"/group members never double-deliver", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				var got tally
				for i := 0; i < 4; i++ {
					serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { got.record(m); return nil })
				}
				const n = 200
				publishKeys(t, rig.bus, "k", n)
				quiet(t, "no lag", func() bool { return rig.stats().Lag() == 0 })
				keys, _ := got.snapshot()
				seen := make(map[string]bool, n)
				for _, key := range keys {
					if seen[key] {
						t.Fatalf("%s delivered twice", key)
					}
					seen[key] = true
				}
				if len(seen) != n {
					t.Fatalf("%d of %d messages delivered", len(seen), n)
				}
			})

			t.Run(layout.name+"/deliveries resume after the session dies", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				var got tally
				serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { got.record(m); return nil })
				publishKeys(t, rig.bus, "before", 1)
				quiet(t, "one handled", func() bool { return got.len() == 1 })
				rig.failover()
				// A restarted single broker has forgotten the group; the producer
				// side re-declares it, as a broker tier's boot hook would.
				if err := rig.bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
					t.Fatal(err)
				}
				publishKeys(t, rig.bus, "after", 1)
				vtime.Advance(pushReopenBase) // the dead session's first reopen
				quiet(t, "the publish after the failover handled last", func() bool {
					keys, _ := got.snapshot()
					return keys[len(keys)-1] == "after000"
				})
			})

			// The settle-on-a-dead-context defect: the window of deliveries
			// buffered behind a parked handler when a worker closes must go back
			// now, not sit stranded for the lease.
			t.Run(layout.name+"/close hands back what was sent but not handled", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				const n = 40
				publishKeys(t, rig.bus, "k", n)
				first, _ := serveOn(t, rig.bus, func(ctx context.Context, _ ConsumeResp) error {
					<-ctx.Done()
					return ctx.Err()
				})
				// The handler holds one, the stream window is full behind it.
				quiet(t, "a full window in flight", func() bool { return rig.stats().InFlight >= 32 })
				closeWithin(t, "worker with a full window", first.Close)
				quiet(t, "nothing in flight", func() bool { return rig.stats().InFlight == 0 })

				var got tally
				serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { got.record(m); return nil })
				quiet(t, "no lag", func() bool { return rig.stats().Lag() == 0 })
				keys, _ := got.snapshot()
				seen := make(map[string]bool, n)
				for _, key := range keys {
					seen[key] = true
				}
				if len(seen) != n {
					t.Fatalf("second worker received %d of %d messages inside the lease", len(seen), n)
				}
			})

			// The consumer-outlives-its-server defect: closing the server a
			// worker was registered on is all a scale-down does.
			t.Run(layout.name+"/stops with its server", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				var stopped, live tally
				w, srv := serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { stopped.record(m); return nil })
				serveOn(t, rig.bus, func(_ context.Context, m ConsumeResp) error { live.record(m); return nil })
				closeWithin(t, "server of an idle worker", func() { srv.Close() })
				select {
				case <-w.done:
				default:
					t.Fatal("worker still running after its server closed")
				}
				const n = 20
				publishKeys(t, rig.bus, "k", n)
				quiet(t, "no lag", func() bool { return rig.stats().Lag() == 0 })
				if stopped.len() != 0 || live.len() != n {
					t.Fatalf("stopped worker handled %d, live worker %d of %d", stopped.len(), live.len(), n)
				}
			})

			t.Run(layout.name+"/close returns promptly", func(t *testing.T) {
				rig := boot(t, QueueConfig{})
				idle, _ := serveOn(t, rig.bus, func(context.Context, ConsumeResp) error { return nil })
				closeWithin(t, "parked in Next", idle.Close)
				closeWithin(t, "closed twice", idle.Close)

				entered := make(chan struct{}, 1)
				busy, _ := serveOn(t, rig.bus, func(ctx context.Context, _ ConsumeResp) error {
					entered <- struct{}{}
					<-ctx.Done()
					return ctx.Err()
				})
				publishKeys(t, rig.bus, "held", 1)
				<-entered
				closeWithin(t, "in the handler", busy.Close)

				// The delivery fails; once quiet the worker sits in its post-Nack
				// pause.
				publishKeys(t, rig.bus, "failed", 1)
				failing, _ := serveOn(t, rig.bus, func(context.Context, ConsumeResp) error { return errors.New("not now") })
				vtime.Wait()
				closeWithin(t, "in the post-Nack pause", failing.Close)
			})
		}
	})
}
