package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

type sleepReq struct {
	Ms  int64
	Tag string
}

type sleepResp struct{ Tag string }

// startSleeper boots a server whose "Sleep" method waits the requested
// duration before echoing the tag — the tool for forcing replies to arrive
// in a different order than their requests were sent.
func startSleeper(t testing.TB, network Network) string {
	t.Helper()
	s := NewServer("sleeper")
	s.Handle("Sleep", func(ctx *Ctx, payload []byte) ([]byte, error) {
		var req sleepReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, Errorf(CodeBadRequest, "bad payload: %v", err)
		}
		// Real time: the sleeper serves the TCP subtests too, and a goroutine
		// blocked on a real socket never lets a bubble's clock move.
		time.Sleep(time.Duration(req.Ms) * time.Millisecond)
		return codec.Marshal(sleepResp{Tag: req.Tag})
	})
	addr, err := s.Start(network, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

// TestPipelinedOutOfOrderReplies pins the pipelining contract of Go: a slow
// request issued first must not block the fast requests issued behind it,
// and every reply, in whatever order they complete, must reach its own
// request.
func TestPipelinedOutOfOrderReplies(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		addr := startSleeper(t, n)
		c := NewClient(n, "sleeper", addr)
		defer c.Close()
		ctx := context.Background()

		var slowResp sleepResp
		slow := c.Go(ctx, "Sleep", sleepReq{Ms: 150, Tag: "slow"}, &slowResp)

		const fast = 8
		fastResps := make([]sleepResp, fast)
		fastPending := make([]*Pending, fast)
		for i := 0; i < fast; i++ {
			fastPending[i] = c.Go(ctx, "Sleep", sleepReq{Ms: 1, Tag: fmt.Sprintf("fast-%d", i)}, &fastResps[i])
		}
		for i, p := range fastPending {
			if err := p.Wait(); err != nil {
				t.Fatalf("fast call %d: %v", i, err)
			}
			if want := fmt.Sprintf("fast-%d", i); fastResps[i].Tag != want {
				t.Fatalf("fast call %d got reply %q, want %q — reply matched to wrong request", i, fastResps[i].Tag, want)
			}
		}
		// All fast replies are in; the slow one — sent FIRST — must still be
		// outstanding, proving the later requests overtook it.
		select {
		case <-slow.Done():
			t.Fatal("slow call finished before the fast calls pipelined behind it — no out-of-order completion")
		default:
		}
		if err := slow.Wait(); err != nil {
			t.Fatalf("slow call: %v", err)
		}
		if slowResp.Tag != "slow" {
			t.Fatalf("slow reply = %q, want %q", slowResp.Tag, "slow")
		}
	})
}

// TestPipelinedConcurrentSenders runs many concurrent pipelining senders on
// one client and verifies every reply lands on the request that issued it.
// Run under -race this exercises the idle stack's check-out and parking
// under contention.
func TestPipelinedConcurrentSenders(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		addr, _ := startEcho(t, n)
		c := NewClient(n, "echo", addr)
		defer c.Close()
		ctx := context.Background()

		const senders, perSender = 16, 25
		var wg sync.WaitGroup
		errs := make(chan error, senders*perSender)
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				pend := make([]*Pending, perSender)
				resps := make([]echoResp, perSender)
				for i := 0; i < perSender; i++ {
					pend[i] = c.Go(ctx, "Echo", echoReq{Text: fmt.Sprintf("s%d-i%d", s, i)}, &resps[i])
				}
				for i := 0; i < perSender; i++ {
					if err := pend[i].Wait(); err != nil {
						errs <- fmt.Errorf("sender %d call %d: %w", s, i, err)
						return
					}
					if want := fmt.Sprintf("s%d-i%d", s, i); resps[i].Text != want {
						errs <- fmt.Errorf("sender %d call %d got %q, want %q", s, i, resps[i].Text, want)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestOneWaySemantics pins the fire-and-forget contract: CallOneWay returns
// at send, the handler still runs (through the interceptor chain), no reply
// frame is produced, and the connection stays healthy for synchronous calls
// issued afterwards.
func TestOneWaySemantics(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		var handled, intercepted atomic.Int64
		s := NewServer("notify")
		s.Use(func(ctx *Ctx, payload []byte, next Handler) ([]byte, error) {
			intercepted.Add(1)
			return next(ctx, payload)
		})
		s.Handle("Notify", func(ctx *Ctx, payload []byte) ([]byte, error) {
			handled.Add(1)
			return []byte("ignored"), nil
		})
		s.Handle("Ping", func(ctx *Ctx, payload []byte) ([]byte, error) {
			return payload, nil
		})
		addr, err := s.Start(n, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		defer s.Close()

		c := NewClient(n, "notify", addr)
		defer c.Close()
		ctx := context.Background()

		const calls = 10
		for i := 0; i < calls; i++ {
			if err := c.CallOneWay(ctx, "Notify", echoReq{Text: "fire"}); err != nil {
				t.Fatalf("CallOneWay: %v", err)
			}
		}
		// A post-send failure never reaches the caller: there is no reply
		// frame to carry it.
		if err := c.CallOneWay(ctx, "NoSuchMethod", echoReq{}); err != nil {
			t.Fatalf("CallOneWay(NoSuchMethod) surfaced a post-send error: %v", err)
		}
		// A sync call on the same connection after the one-way burst: its seq
		// must not collide with any phantom one-way reply.
		out, err := c.CallRaw(ctx, "Ping", []byte("still-alive"))
		if err != nil {
			t.Fatalf("sync call after one-way burst: %v", err)
		}
		if string(out) != "still-alive" {
			t.Fatalf("sync reply = %q", out)
		}
		waitFor(t, func() bool { return handled.Load() == calls })
		if got := intercepted.Load(); got < calls {
			t.Fatalf("interceptor saw %d of %d one-way requests", got, calls)
		}
	})
}

// TestOneWayRunsMiddleware pins the transport call option: a one-way call
// flows through the client middleware chain with Call.OneWay set, so stats,
// breakers, and fault injection see the hop.
func TestOneWayRunsMiddleware(t *testing.T) {
	n := NewMem()
	addr, _ := startEcho(t, n)
	var seen, oneway atomic.Int64
	mw := func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			seen.Add(1)
			if call.OneWay {
				oneway.Add(1)
			}
			return next(ctx, call)
		}
	}
	c := NewClient(n, "echo", addr, WithMiddleware(mw))
	defer c.Close()
	ctx := context.Background()

	if err := c.CallOneWay(ctx, "Echo", echoReq{Text: "x"}); err != nil {
		t.Fatalf("CallOneWay: %v", err)
	}
	var resp echoResp
	if err := c.Call(ctx, "Echo", echoReq{Text: "y"}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if seen.Load() != 2 {
		t.Fatalf("middleware saw %d calls, want 2", seen.Load())
	}
	if oneway.Load() != 1 {
		t.Fatalf("middleware saw OneWay on %d calls, want exactly the one-way one", oneway.Load())
	}
}

// waitFor polls cond until it holds or a generous deadline passes — one-way
// completion is asynchronous by design, so assertions on server-side effects
// must wait for the dispatch goroutine. It polls in real time: its callers
// run over real TCP sockets or count the process's goroutines, neither of
// which a bubble can wait on.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
