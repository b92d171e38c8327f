package svcutil

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"dsb/internal/lb"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/transport"
)

// startRelay boots a backend with a raw echo, a failing method and one that
// reports the deadline it was handed, and a relay tier in front of it that
// forwards all three through down (built over the backend's address).
func startRelay(t testing.TB, down func(n rpc.Network, addr string) Caller) (*rpc.Client, func()) {
	t.Helper()
	n := rpc.NewMem()
	backend := rpc.NewServer("backend")
	backend.Handle("Echo", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return payload, nil })
	backend.Handle("Fail", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		return nil, rpc.Errorf(rpc.CodeConflict, "backend says no")
	})
	backend.Handle("Deadline", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			return nil, rpc.Errorf(rpc.CodeInternal, "no deadline reached the backend")
		}
		return ctx.PooledReply(dl.UnixNano())
	})
	backendAddr, err := backend.Start(n, "backend:0")
	if err != nil {
		t.Fatal(err)
	}
	d := down(n, backendAddr)
	relay := rpc.NewServer("relay")
	Relay(relay, "Echo", d, "Echo")
	Relay(relay, "Fail", d, "Fail")
	Relay(relay, "Deadline", d, "Deadline")
	relayAddr, err := relay.Start(n, "relay:0")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(n, "relay", relayAddr)
	return c, func() {
		c.Close()
		relay.Close()
		if cl, ok := d.(interface{ Close() error }); ok {
			cl.Close()
		}
		backend.Close()
	}
}

func overClient(n rpc.Network, addr string) Caller {
	return rpc.NewClient(n, "backend", addr)
}

// A relayed call is indistinguishable from a typed forward: same reply
// bytes, the downstream's coded error, the caller's deadline downstream —
// through a plain client and through a balancer with a hedging chain, under
// concurrent callers whose replies must never cross.
func TestRelayForwardsReplyErrorAndDeadline(t *testing.T) {
	hedged := func(n rpc.Network, addr string) Caller {
		router := shard.NewRouter(n, "backend")
		router.Sync([]registry.Instance{{Addr: addr}})
		return lb.Over(router, transport.Hedge(transport.HedgeConfig{Delay: time.Microsecond}))
	}
	for name, down := range map[string]func(rpc.Network, string) Caller{"client": overClient, "hedged balancer": hedged} {
		t.Run(name, func(t *testing.T) {
			c, stop := startRelay(t, down)
			defer stop()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						want := bytes.Repeat([]byte{byte(g), byte(i)}, 1+(g*31+i)%700)
						got, err := c.CallRaw(context.Background(), "Echo", want)
						if err != nil || !bytes.Equal(got, want) {
							t.Errorf("caller %d call %d: %d bytes back, err %v; want its own %d bytes", g, i, len(got), err, len(want))
							return
						}
					}
				}(g)
			}
			wg.Wait()

			err := c.Call(context.Background(), "Fail", "x", nil)
			if !rpc.IsCode(err, rpc.CodeConflict) {
				t.Fatalf("relayed error = %v, want the backend's CodeConflict", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			want, _ := ctx.Deadline()
			var got int64
			if err := c.Call(ctx, "Deadline", "x", &got); err != nil {
				t.Fatal(err)
			}
			if got != want.UnixNano() {
				t.Fatalf("backend saw deadline %v, caller set %v", time.Unix(0, got), want)
			}
		})
	}
}

type typedOnly struct{ Caller }

func TestRelayRejectsCallerWithoutInvoke(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) == "" {
			t.Fatalf("Relay over a Caller with no Invoke did not panic")
		}
	}()
	Relay(rpc.NewServer("relay"), "Echo", typedOnly{}, "Echo")
}

// TestRelayHopAllocGuard pins what putting a relay tier in the path costs:
// at most the typed hop's two objects (there the server Ctx and the request
// value; here the server Ctx and the request copy the hedge rule needs).
func TestRelayHopAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	c, stop := startRelay(t, overClient)
	defer stop()
	ctx := context.Background()
	payload := make([]byte, 300)
	relayed := func() {
		// The reply is ours (CallRaw transfers it): hand it back so the
		// measurement is the hop's, not the pool running dry.
		reply, err := c.CallRaw(ctx, "Echo", payload)
		if err != nil || len(reply) != len(payload) {
			t.Fatal(len(reply), err)
		}
		transport.ReleaseBuf(reply)
	}
	for i := 0; i < 2000; i++ {
		relayed()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := 1 << 30
	for i := 0; i < 5; i++ {
		if got := int(testing.AllocsPerRun(200, relayed)); got < best {
			best = got
		}
	}
	// Two hops, so two server Ctxs, plus the relay's request copy.
	if best > 3 {
		t.Fatalf("a relayed round trip allocates %d objects, want ≤3: one Ctx per hop and the relay's own ≤2 (Ctx, request copy)", best)
	}
}
