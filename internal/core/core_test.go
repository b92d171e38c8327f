package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

// buildTwoTier boots backend (RPC) and frontend (REST) tiers where the
// frontend calls the backend, the canonical shape of every suite app.
func buildTwoTier(t *testing.T) (*App, *rest.Client) {
	t.Helper()
	app := NewApp("test", Options{})
	t.Cleanup(func() { app.Close() })

	if _, err := app.StartRPC("backend", func(s *rpc.Server) {
		s.Handle("Double", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			var n int64
			if err := codec.Unmarshal(payload, &n); err != nil {
				return nil, err
			}
			return codec.Marshal(n * 2)
		})
	}); err != nil {
		t.Fatal(err)
	}

	backend, err := app.RPC("frontend", "backend")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.StartREST("frontend", func(s *rest.Server) {
		s.Handle("POST /double", func(ctx *rest.Ctx, body []byte) (any, error) {
			var req struct {
				N int64 `json:"n"`
			}
			if err := rest.DecodeJSON(body, &req); err != nil {
				return nil, err
			}
			var out int64
			if err := backend.Call(ctx, "Double", req.N, &out); err != nil {
				return nil, err
			}
			return map[string]int64{"result": out}, nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	client, err := app.REST("client", "frontend")
	if err != nil {
		t.Fatal(err)
	}
	return app, client
}

func TestEndToEndTwoTier(t *testing.T) {
	_, client := buildTwoTier(t)
	var resp struct {
		Result int64 `json:"result"`
	}
	if err := client.Do(context.Background(), "POST", "/double", map[string]int64{"n": 21}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result != 42 {
		t.Fatalf("result = %d", resp.Result)
	}
}

func TestTracesSpanRESTAndRPC(t *testing.T) {
	app, client := buildTwoTier(t)
	if err := client.Do(context.Background(), "POST", "/double", map[string]int64{"n": 1}, nil); err != nil {
		t.Fatal(err)
	}
	app.FlushTraces()
	if app.Traces.Len() != 1 {
		t.Fatalf("traces = %d, want 1 end-to-end trace", app.Traces.Len())
	}
	id := app.Traces.TraceIDs()[0]
	spans := app.Traces.Spans(id)
	// client REST client span, frontend REST server span, frontend RPC
	// client span, backend RPC server span.
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4: %+v", len(spans), spans)
	}
	tree := app.Traces.Tree(id)
	depth := 0
	for n := tree; n != nil && len(n.Children) > 0; n = n.Children[0] {
		depth++
	}
	if depth != 3 {
		t.Fatalf("trace depth = %d, want 3", depth)
	}
}

func TestRPCUnknownTarget(t *testing.T) {
	app := NewApp("test", Options{})
	defer app.Close()
	if _, err := app.RPC("x", "missing"); err == nil {
		t.Fatal("want error for unknown target")
	}
	if _, err := app.REST("x", "missing"); err == nil {
		t.Fatal("want error for unknown REST target")
	}
}

func TestScaleOutRedirectsTraffic(t *testing.T) {
	app := NewApp("test", Options{})
	defer app.Close()
	handler := func(name string) func(*rpc.Server) {
		return func(s *rpc.Server) {
			s.Handle("Who", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
				return codec.Marshal(name)
			})
		}
	}
	if _, err := app.StartRPC("svc", handler("one")); err != nil {
		t.Fatal(err)
	}
	cl, err := app.RPC("caller", "svc")
	if err != nil {
		t.Fatal(err)
	}
	// Scale out to a second instance; the balanced client must pick it up
	// via the registry watch.
	if _, err := app.StartRPC("svc", handler("two")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	seen := map[string]bool{}
	for time.Now().Before(deadline) && len(seen) < 2 {
		var who string
		if err := cl.Call(context.Background(), "Who", nil, &who); err != nil {
			t.Fatal(err)
		}
		seen[who] = true
	}
	if len(seen) != 2 {
		t.Fatalf("traffic never reached new instance: %v", seen)
	}
}

func TestTracingDisabled(t *testing.T) {
	app := NewApp("test", Options{DisableTracing: true})
	defer app.Close()
	if _, err := app.StartRPC("svc", func(s *rpc.Server) {
		s.Handle("Ping", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := app.RPC("caller", "svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Call(context.Background(), "Ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	if app.Traces != nil {
		t.Fatal("trace store allocated with tracing disabled")
	}
	app.FlushTraces() // must not panic
}

func TestCloseIdempotent(t *testing.T) {
	app := NewApp("test", Options{})
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceFailureRecovery(t *testing.T) {
	vtime.Run(t, func() {
		app := NewApp("failover", Options{})
		defer app.Close()
		mk := func(name string) (*rpc.Server, string) {
			var srv *rpc.Server
			addr, err := app.StartRPC("svc", func(s *rpc.Server) {
				srv = s
				s.Handle("Who", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
					return codec.Marshal(name)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv, addr
		}
		srv1, addr1 := mk("one")
		mk("two")
		cl, err := app.RPC("caller", "svc")
		if err != nil {
			t.Fatal(err)
		}
		// Kill instance one: close its server and deregister it, as a health
		// checker would.
		srv1.Close()
		app.Registry.Deregister("svc", addr1)
		vtime.Wait() // the balancer has followed the registry
		for i := 0; i < 50; i++ {
			var who string
			if err := cl.Call(context.Background(), "Who", nil, &who); err != nil {
				t.Fatalf("call %d after the eviction: %v", i, err)
			}
			if who != "two" {
				t.Fatalf("routed to dead instance: %q", who)
			}
		}
	})
}

// TestDeadlineBudgetShrinksAcrossTwoHops drives a root→mid→leaf RPC chain
// with the resilience budget enabled and asserts each tier observes a
// strictly tighter deadline than its caller — the per-hop budget propagated
// via the deadline header, end to end.
func TestDeadlineBudgetShrinksAcrossTwoHops(t *testing.T) {
	app := NewApp("budget", Options{
		Resilience: &transport.ResilienceConfig{Budget: &transport.BudgetConfig{Fraction: 0.5}},
	})
	defer app.Close()

	var mu sync.Mutex
	deadlines := map[string]time.Time{}
	record := func(name string, ctx context.Context) {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Errorf("%s: no deadline on handler context", name)
			return
		}
		mu.Lock()
		deadlines[name] = dl
		mu.Unlock()
	}

	if _, err := app.StartRPC("leaf", func(s *rpc.Server) {
		s.Handle("Work", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			record("leaf", ctx)
			return nil, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	leaf, err := app.RPC("mid", "leaf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.StartRPC("mid", func(s *rpc.Server) {
		s.Handle("Work", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			record("mid", ctx)
			return nil, leaf.Call(ctx, "Work", nil, nil)
		})
	}); err != nil {
		t.Fatal(err)
	}
	mid, err := app.RPC("root", "mid")
	if err != nil {
		t.Fatal(err)
	}

	rootDL := time.Now().Add(time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), rootDL)
	defer cancel()
	if err := mid.Call(ctx, "Work", nil, nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	midDL, leafDL := deadlines["mid"], deadlines["leaf"]
	if !midDL.Before(rootDL) {
		t.Fatalf("mid deadline %v not tighter than root %v", midDL, rootDL)
	}
	if !leafDL.Before(midDL) {
		t.Fatalf("leaf deadline %v not tighter than mid %v", leafDL, midDL)
	}
	if app.Transport.DeadlineTruncated.Value() < 2 {
		t.Fatalf("DeadlineTruncated = %d, want ≥2 (one per hop)", app.Transport.DeadlineTruncated.Value())
	}
}

// TestResilienceFailsFastOnSpentBudget checks the fail-fast path: a call
// entering the stack with (almost) no budget left is refused locally with
// CodeDeadline, never reaching the wire.
func TestResilienceFailsFastOnSpentBudget(t *testing.T) {
	app := NewApp("spent", Options{Resilience: transport.NewResilience()})
	defer app.Close()

	reached := false
	if _, err := app.StartRPC("leaf", func(s *rpc.Server) {
		s.Handle("Work", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			reached = true
			return nil, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	leaf, err := app.RPC("root", "leaf")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	err = leaf.Call(ctx, "Work", nil, nil)
	if !rpc.IsCode(err, rpc.CodeDeadline) {
		t.Fatalf("err = %v, want CodeDeadline", err)
	}
	if reached {
		t.Fatal("doomed call reached the server")
	}
}

// TestKillEvictsViaLeaseAndReviveReturns drives the crash path end to end:
// a killed replica stops heartbeating, its lease expires, FollowRegistry
// drops it from the replica set within ~2 TTLs, and Revive re-enrolls it.
// RPC and ShardedRPC build the same registry-following replica set; the
// router ShardedRPC hands out shows its membership.
func TestKillEvictsViaLeaseAndReviveReturns(t *testing.T) {
	vtime.Run(t, func() {
		const ttl = 60 * time.Millisecond
		app := NewApp("test", Options{LeaseTTL: ttl})
		defer app.Close()

		register := func(s *rpc.Server) {
			s.Handle("Ping", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
				return []byte("pong"), nil
			})
		}
		for i := 0; i < 2; i++ {
			if _, err := app.StartRPCInstance("backend", register); err != nil {
				t.Fatal(err)
			}
		}
		bal, err := app.RPC("frontend", "backend")
		if err != nil {
			t.Fatal(err)
		}
		set, err := app.ShardedRPC("frontend", "backend")
		if err != nil {
			t.Fatal(err)
		}
		backends := func() []string {
			var out []string
			for _, rep := range set.Replicas() {
				out = append(out, rep.Addr())
			}
			return out
		}
		if got := len(backends()); got != 2 {
			t.Fatalf("backends = %d, want 2", got)
		}

		victims := app.Instances("backend")
		if len(victims) != 2 {
			t.Fatalf("Instances = %d, want 2", len(victims))
		}
		victim := victims[1]
		victim.Kill()

		// The registration lingers until the lease runs out, one TTL after the
		// last heartbeat — which was a heartbeat interval (TTL/3) before the
		// kill at the earliest — and the balancer follows at once.
		vtime.Advance(ttl - ttl/3 - time.Nanosecond)
		if got := backends(); len(got) != 2 {
			t.Fatalf("backends = %v before any lease could have run out", got)
		}
		vtime.Advance(ttl/3 + time.Nanosecond)
		vtime.Wait()
		if got := backends(); len(got) != 1 || got[0] == victim.Addr {
			t.Fatalf("backends = %v one TTL after kill, want victim %s evicted", got, victim.Addr)
		}

		// Calls keep succeeding against the survivor: the balancer dropped the
		// victim too, or one of two round-robin picks would hang on it.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		for i := 0; i < 2; i++ {
			if err := bal.Call(ctx, "Ping", nil, nil); err != nil {
				t.Fatalf("call %d after eviction: %v", i, err)
			}
		}

		victim.Revive()
		vtime.Wait()
		if got := backends(); len(got) != 2 {
			t.Fatalf("backends = %v after revive, want 2", got)
		}
	})
}
