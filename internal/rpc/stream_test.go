package rpc

// Streaming RPC: server push, flow control, cancellation, and the teardown
// matrix — conn death, Server.Close, and context expiry must all wake parked
// stream handlers and receivers. Runs under -race in `make check`.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

type streamItem struct {
	Seq int64
	Msg string
}

// startStreamServer boots a server with a family of stream handlers used
// across the streaming tests.
func startStreamServer(t testing.TB, network Network) (string, *Server) {
	t.Helper()
	s := NewServer("stream")
	// Countdown: server pushes N items then returns cleanly.
	s.HandleStream("Countdown", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		var req echoReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return Errorf(CodeBadRequest, "bad payload: %v", err)
		}
		for i := int64(0); i < req.N; i++ {
			if err := st.SendMsg(streamItem{Seq: i, Msg: req.Text}); err != nil {
				return err
			}
		}
		return nil
	})
	// Firehose: server sends until its stream dies; used to exercise window
	// exhaustion and teardown while parked on credit.
	s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		for i := int64(0); ; i++ {
			if err := st.SendMsg(streamItem{Seq: i}); err != nil {
				return err
			}
		}
	})
	// Fails: coded handler error after one item.
	s.HandleStream("Fails", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		if err := st.SendMsg(streamItem{Seq: 0}); err != nil {
			return err
		}
		return Errorf(CodeConflict, "handler gave up")
	})
	// Parked: handler parked on its ctx until teardown cancels it.
	s.HandleStream("Parked", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		<-ctx.Done()
		return ctx.Err()
	})
	addr, err := s.Start(network, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, s
}

func TestStreamServerPush(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		addr, _ := startStreamServer(t, n)
		c := NewClient(n, "stream", addr)
		defer c.Close()

		st, err := c.Stream(context.Background(), "Countdown", echoReq{Text: "x", N: 100})
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		for i := int64(0); i < 100; i++ {
			var item streamItem
			if err := st.Recv(&item); err != nil {
				t.Fatalf("Recv #%d: %v", i, err)
			}
			if item.Seq != i || item.Msg != "x" {
				t.Fatalf("item = %+v, want seq %d", item, i)
			}
		}
		var item streamItem
		if err := st.Recv(&item); err != io.EOF {
			t.Fatalf("after last item err = %v, want clean stream end", err)
		}
	})
}

// TestStreamFlowControlParksSender proves the window actually bounds the
// sender: with the client not consuming, the firehose handler must stall at
// the window instead of running away, then resume once the client drains.
func TestStreamFlowControlParksSender(t *testing.T) {
	vtime.Run(t, func() {
		n := NewMem()
		s := NewServer("stream")
		var sent atomic.Int64
		s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
			for i := int64(0); ; i++ {
				if err := st.SendMsg(streamItem{Seq: i}); err != nil {
					return err
				}
				sent.Store(i + 1)
			}
		})
		addr, err := s.Start(n, "stream:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := NewClient(n, "stream", addr)
		defer c.Close()

		st, err := c.Stream(context.Background(), "Firehose", echoReq{})
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		// Let the sender run without a consumer: it must park at the window.
		vtime.Wait()
		if got := sent.Load(); got < streamWindow || got > 2*streamWindow {
			t.Fatalf("sender parked after %d items with no consumer; want the window, %d, to bound it", got, streamWindow)
		}
		stalled := sent.Load()
		// Drain a full window: credit flows back and the sender resumes.
		for i := 0; i < streamWindow; i++ {
			var item streamItem
			if err := st.Recv(&item); err != nil {
				t.Fatalf("Recv: %v", err)
			}
		}
		vtime.Wait()
		if sent.Load() <= stalled {
			t.Fatalf("sender still stalled at %d after a window was drained", stalled)
		}
		st.Cancel()
	})
}

func TestStreamHandlerError(t *testing.T) {
	n := NewMem()
	addr, _ := startStreamServer(t, n)
	c := NewClient(n, "stream", addr)
	defer c.Close()

	st, err := c.Stream(context.Background(), "Fails", echoReq{})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	var item streamItem
	if err := st.Recv(&item); err != nil {
		t.Fatalf("first Recv: %v", err)
	}
	// The handler's error ends the stream for good: every Recv reports it.
	for i := 0; i < 2; i++ {
		if err := st.Recv(&item); !IsCode(err, CodeConflict) {
			t.Fatalf("Recv #%d after the item: %v, want CodeConflict from handler", i, err)
		}
	}
}

func TestStreamUnknownMethod(t *testing.T) {
	n := NewMem()
	addr, _ := startStreamServer(t, n)
	c := NewClient(n, "stream", addr)
	defer c.Close()

	st, err := c.Stream(context.Background(), "Missing", echoReq{})
	if err != nil {
		t.Fatalf("Stream open: %v", err) // open is async; the error lands on Recv
	}
	var item streamItem
	if err := st.Recv(&item); !IsCode(err, CodeNotFound) {
		t.Fatalf("err = %v, want CodeNotFound", err)
	}
}

// TestStreamClientCancel cancels the client context mid-stream: the client
// side tears down promptly and the server handler's ctx fires so the
// firehose unwinds instead of leaking.
func TestStreamClientCancel(t *testing.T) {
	n := NewMem()
	s := NewServer("stream")
	handlerDone := make(chan struct{})
	s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		defer close(handlerDone)
		for i := int64(0); ; i++ {
			if err := st.SendMsg(streamItem{Seq: i}); err != nil {
				return err
			}
		}
	})
	addr, err := s.Start(n, "stream:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "stream", addr)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.Stream(ctx, "Firehose", echoReq{})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	var item streamItem
	if err := st.Recv(&item); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	cancel()

	// Client side: recv drains buffered items, then reports the abort.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := st.Recv(&item); err != nil {
			if !IsCode(err, CodeDeadline) {
				t.Fatalf("post-cancel err = %v, want CodeDeadline", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Recv never saw the cancellation")
		}
	}
	// Server side: the handler unwinds.
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server handler still running after client cancel")
	}
}

// TestStreamConnDeathFailsBothEnds kills the transport under an open stream;
// a client parked in Recv and the server handler parked in Send on an
// exhausted window must both wake with coded retryable errors.
func TestStreamConnDeathFailsBothEnds(t *testing.T) {
	mem := NewMem()
	n := &connGrabber{Network: mem}
	s := NewServer("stream")
	handlerErr := make(chan error, 1)
	s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		for i := int64(0); ; i++ {
			if err := st.SendMsg(streamItem{Seq: i}); err != nil {
				handlerErr <- err
				return err
			}
		}
	})
	addr, err := s.Start(mem, "stream:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "stream", addr)
	defer c.Close()

	st, err := c.Stream(context.Background(), "Firehose", echoReq{})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	var item streamItem
	if err := st.Recv(&item); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	n.closeAll()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := st.Recv(&item); err != nil {
			if !IsCode(err, CodeUnavailable) || !transport.Retryable(err) {
				t.Fatalf("post-death err = %v, want retryable CodeUnavailable", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Recv never observed conn death")
		}
	}
	select {
	case err := <-handlerErr:
		if !IsCode(err, CodeUnavailable) || !transport.Retryable(err) {
			t.Fatalf("the handler's Send failed with %v, want retryable CodeUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler parked in Send never observed conn death")
	}
}

// TestStreamsMultiplexWithUnary runs streams, unary calls, and one-way
// notifications concurrently on one Client: each conversation has its own
// connection, and none disturbs another.
func TestStreamsMultiplexWithUnary(t *testing.T) {
	n := NewMem()
	s := NewServer("mux")
	var oneways atomic.Int64
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return payload, nil
	})
	s.Handle("Note", func(ctx *Ctx, payload []byte) ([]byte, error) {
		oneways.Add(1)
		return nil, nil
	})
	s.HandleStream("Countdown", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		var req echoReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return err
		}
		for i := int64(0); i < req.N; i++ {
			if err := st.SendMsg(streamItem{Seq: i}); err != nil {
				return err
			}
		}
		return nil
	})
	addr, err := s.Start(n, "mux:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "mux", addr)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := c.Stream(context.Background(), "Countdown", echoReq{N: 64})
			if err != nil {
				errs <- err
				return
			}
			for i := int64(0); i < 64; i++ {
				var item streamItem
				if err := st.Recv(&item); err != nil {
					errs <- fmt.Errorf("stream %d item %d: %w", g, i, err)
					return
				}
				if item.Seq != i {
					errs <- fmt.Errorf("stream %d: seq %d want %d", g, item.Seq, i)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				msg := fmt.Sprintf("u%d-%d", g, i)
				out, err := c.CallRaw(context.Background(), "Echo", []byte(msg))
				if err != nil {
					errs <- err
					return
				}
				if string(out) != msg {
					errs <- fmt.Errorf("unary echo = %q want %q", out, msg)
					return
				}
				if err := c.CallOneWay(context.Background(), "Note", nil); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitFor(t, func() bool { return oneways.Load() == 4*32 })
}

// TestServerCloseWakesParkedStreams is the shutdown-regression test:
// Server.Close must wake a handler parked in Send on an exhausted window
// and one parked on its ctx — mirroring the long-poll shutdown fix, Close
// may not hang on them and the client must see a coded error.
func TestServerCloseWakesParkedStreams(t *testing.T) {
	vtime.Run(t, func() {
		n := NewMem()
		addr, s := startStreamServer(t, n)
		c := NewClient(n, "stream", addr)
		defer c.Close()

		// Parked sender: firehose with a client that never consumes.
		sendSt, err := c.Stream(context.Background(), "Firehose", echoReq{})
		if err != nil {
			t.Fatalf("Stream(Firehose): %v", err)
		}
		// Parked handler: blocked on its ctx, sending nothing.
		parkedSt, err := c.Stream(context.Background(), "Parked", echoReq{})
		if err != nil {
			t.Fatalf("Stream(Parked): %v", err)
		}
		var item streamItem
		if err := sendSt.Recv(&item); err != nil { // stream is live
			t.Fatalf("Recv: %v", err)
		}
		vtime.Wait() // the firehose is parked on its window

		closed := make(chan struct{})
		go func() {
			s.Close() // must not hang on the parked handlers
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Server.Close hung on parked stream handlers")
		}

		for _, st := range []*transport.Stream{sendSt, parkedSt} {
			deadline := time.Now().Add(5 * time.Second)
			for {
				if err := st.Recv(&item); err != nil {
					if err == io.EOF || IsCode(err, CodeUnavailable) {
						break
					}
					t.Fatalf("post-Close err = %v, want stream end or CodeUnavailable", err)
				}
				if time.Now().After(deadline) {
					t.Fatal("client stream never observed server shutdown")
				}
			}
		}
	})
}

// TestHungServerSilencesOpenStreams: a hung server falls silent on the
// streams it already has open the way it stops answering calls — what its
// handlers send is lost, their return sends no End — and Resume, a
// restarted replica, ends those streams so their consumers reopen.
func TestHungServerSilencesOpenStreams(t *testing.T) {
	n := NewMem()
	s := NewServer("ticker")
	ticks, sent := make(chan struct{}), make(chan struct{})
	s.HandleStream("Ticks", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		for i := int64(0); ; i++ {
			select {
			case <-ticks:
			case <-st.Done():
				return nil
			}
			if err := st.SendMsg(streamItem{Seq: i}); err != nil {
				return err
			}
			sent <- struct{}{}
		}
	})
	addr, err := s.Start(n, "ticker:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "ticker", addr)
	defer c.Close()
	st, err := c.Stream(context.Background(), "Ticks", echoReq{})
	if err != nil {
		t.Fatal(err)
	}
	var item streamItem
	ticks <- struct{}{}
	<-sent
	if err := st.Recv(&item); err != nil || item.Seq != 0 {
		t.Fatalf("live stream: item %+v, %v", item, err)
	}

	s.Hang()
	ticks <- struct{}{}
	<-sent // the handler's Send returned: into the void
	s.Resume()
	// Frames on a connection stay in order, so had item 1 been written it
	// would be read here, ahead of the end of the connection.
	if err := st.Recv(&item); !IsCode(err, CodeUnavailable) {
		t.Fatalf("after a hang: item %+v, err %v; want the stream lost, nothing delivered", item, err)
	}

	// The same on the way out: a handler returning on a hung server sends no
	// End, clean or coded.
	var wire bytes.Buffer
	var hung atomic.Bool
	hung.Store(true)
	ss := &ServerStream{core: newStreamCore(1, newConnWriter(&wire))}
	ss.core.mute = &hung
	ss.finish(Errorf(CodeInternal, "handler failed"))
	if wire.Len() != 0 {
		t.Fatalf("a hung server's handler return wrote %d bytes", wire.Len())
	}
}

// connGrabber records every conn it hands out so a test can sever them all
// while the listener stays up — conn death without server death.
type connGrabber struct {
	Network
	mu    sync.Mutex
	conns []net.Conn
}

func (g *connGrabber) Dial(addr string) (conn net.Conn, err error) {
	conn, err = g.Network.Dial(addr)
	if err == nil {
		g.mu.Lock()
		g.conns = append(g.conns, conn)
		g.mu.Unlock()
	}
	return conn, err
}

func (g *connGrabber) closeAll() {
	g.mu.Lock()
	conns := g.conns
	g.conns = nil
	g.mu.Unlock()
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
}

// TestPipelinedCallsFailFastOnConnDeath is the pipelining regression test:
// Go() calls parked in the pending map must resolve with a coded retryable
// error as soon as the conn dies — not hang until their deadlines, and not
// be transparently resent (the request may have executed).
func TestPipelinedCallsFailFastOnConnDeath(t *testing.T) {
	vtime.Run(t, func() {
		mem := NewMem()
		n := &connGrabber{Network: mem}
		s := NewServer("park")
		release := make(chan struct{})
		s.Handle("Park", func(ctx *Ctx, payload []byte) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		})
		addr, err := s.Start(mem, "park:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer close(release)

		c := NewClient(n, "park", addr)
		defer c.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var pendings []*Pending
		for i := 0; i < 8; i++ {
			pendings = append(pendings, c.Go(ctx, "Park", nil, nil))
		}
		vtime.Wait() // every request is parked in its handler
		n.closeAll()

		start := time.Now()
		for i, p := range pendings {
			err := p.Wait()
			if err == nil {
				t.Fatalf("call #%d succeeded against a severed conn", i)
			}
			if !IsCode(err, CodeUnavailable) || !transport.Retryable(err) {
				t.Fatalf("call #%d err = %v, want retryable CodeUnavailable", i, err)
			}
		}
		if took := time.Since(start); took != 0 {
			t.Fatalf("pending calls took %v to fail after conn death; they hung", took)
		}
	})
}

// TestStreamThroughAttemptMiddleware: a middleware that runs its attempts
// under a context of its own (a hedge, a deadline budget), which ends when
// it returns, must still open a stream that lives on the caller's ctx.
func TestStreamThroughAttemptMiddleware(t *testing.T) {
	for _, tc := range []struct {
		name string
		mws  []transport.Middleware
	}{
		{"hedge", []transport.Middleware{transport.Hedge(transport.HedgeConfig{Delay: time.Millisecond})}},
		{"budget", []transport.Middleware{transport.DeadlineBudget(transport.BudgetConfig{})}},
		{"resilience", transport.NewResilience().Stack()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewMem()
			addr, _ := startStreamServer(t, n)
			c := NewClient(n, "stream", addr, WithMiddleware(tc.mws...))
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			st, err := c.Stream(ctx, "Countdown", echoReq{Text: "x", N: 3})
			if err != nil {
				t.Fatalf("Stream: %v", err)
			}
			for i := int64(0); i < 3; i++ {
				var item streamItem
				if err := st.Recv(&item); err != nil || item.Seq != i {
					t.Fatalf("Recv #%d: %+v, %v", i, item, err)
				}
			}
			if err := st.Recv(nil); err != io.EOF {
				t.Fatalf("after last item err = %v, want clean stream end", err)
			}
		})
	}
}
