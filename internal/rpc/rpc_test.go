package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

type echoReq struct {
	Text string
	N    int64
}

type echoResp struct {
	Text  string
	Calls int64
}

// startEcho boots an echo server on the given network and returns its
// address and a cleanup func.
func startEcho(t testing.TB, network Network) (string, *Server) {
	t.Helper()
	var calls atomic.Int64
	s := NewServer("echo")
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		var req echoReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, Errorf(CodeBadRequest, "bad payload: %v", err)
		}
		return codec.Marshal(echoResp{Text: req.Text, Calls: calls.Add(1)})
	})
	s.Handle("Fail", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return nil, Errorf(CodeUnauthorized, "nope")
	})
	s.Handle("Panic", func(ctx *Ctx, payload []byte) ([]byte, error) {
		panic("boom")
	})
	s.Handle("Slow", func(ctx *Ctx, payload []byte) ([]byte, error) {
		select {
		case <-time.After(5 * time.Second):
			return nil, nil
		case <-ctx.Done():
			return nil, Errorf(CodeDeadline, "server saw cancel")
		}
	})
	addr, err := s.Start(network, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, s
}

func testNetworks(t *testing.T, fn func(t *testing.T, n Network)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("tcp", func(t *testing.T) { fn(t, TCP{}) })
}

func TestCallRoundTrip(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		addr, _ := startEcho(t, n)
		c := NewClient(n, "echo", addr)
		defer c.Close()
		var resp echoResp
		if err := c.Call(context.Background(), "Echo", echoReq{Text: "hi", N: 1}, &resp); err != nil {
			t.Fatalf("Call: %v", err)
		}
		if resp.Text != "hi" || resp.Calls != 1 {
			t.Fatalf("resp = %+v", resp)
		}
	})
}

func TestApplicationError(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		addr, _ := startEcho(t, n)
		c := NewClient(n, "echo", addr)
		defer c.Close()
		err := c.Call(context.Background(), "Fail", echoReq{}, nil)
		if !IsCode(err, CodeUnauthorized) {
			t.Fatalf("want CodeUnauthorized, got %v", err)
		}
	})
}

func TestUnknownMethod(t *testing.T) {
	n := NewMem()
	addr, _ := startEcho(t, n)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	err := c.Call(context.Background(), "Missing", echoReq{}, nil)
	if !IsCode(err, CodeNotFound) {
		t.Fatalf("want CodeNotFound, got %v", err)
	}
}

// TestTypedReplyEncodeFailure: a typed reply the connection writer cannot
// encode goes back as a CodeInternal error, and the connection it was to go
// out on carries the next call.
func TestTypedReplyEncodeFailure(t *testing.T) {
	n := NewMem()
	s := NewServer("typed")
	s.Handle("Bad", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return ctx.Reply(struct{ F func() }{}) // the codec has no encoding for a func
	})
	s.Handle("Good", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return ctx.Reply(echoResp{Text: "ok", Calls: 1})
	})
	addr, err := s.Start(n, "typed:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "typed", addr)
	defer c.Close()
	ctx := context.Background()
	if err := c.Call(ctx, "Bad", echoReq{}, nil); !IsCode(err, CodeInternal) {
		t.Fatalf("unencodable reply: got %v, want CodeInternal", err)
	}
	var resp echoResp
	if err := c.Call(ctx, "Good", echoReq{}, &resp); err != nil || resp.Text != "ok" {
		t.Fatalf("next call: %+v, %v", resp, err)
	}
	if len(c.stack.conns) != 1 {
		t.Fatalf("%d connections after the failed reply, want the one, reused", len(c.stack.conns))
	}
}

func TestPanicRecovered(t *testing.T) {
	n := NewMem()
	addr, _ := startEcho(t, n)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	err := c.Call(context.Background(), "Panic", echoReq{}, nil)
	if !IsCode(err, CodeInternal) {
		t.Fatalf("want CodeInternal, got %v", err)
	}
	// Server must still work after a handler panic.
	var resp echoResp
	if err := c.Call(context.Background(), "Echo", echoReq{Text: "alive"}, &resp); err != nil {
		t.Fatalf("post-panic call: %v", err)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	n := NewMem()
	addr, _ := startEcho(t, n)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Call(ctx, "Slow", echoReq{}, nil)
	if !IsCode(err, CodeDeadline) {
		t.Fatalf("want CodeDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline not honored: took %v", elapsed)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	testNetworks(t, func(t *testing.T, n Network) {
		addr, _ := startEcho(t, n)
		c := NewClient(n, "echo", addr)
		defer c.Close()
		const workers, per = 8, 50
		var wg sync.WaitGroup
		errs := make(chan error, workers*per)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					var resp echoResp
					text := fmt.Sprintf("w%d-%d", w, i)
					if err := c.Call(context.Background(), "Echo", echoReq{Text: text}, &resp); err != nil {
						errs <- err
						return
					}
					if resp.Text != text {
						errs <- fmt.Errorf("cross-talk: sent %q got %q", text, resp.Text)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

func TestServerCloseFailsInflight(t *testing.T) {
	vtime.Run(t, func() {
		n := NewMem()
		addr, srv := startEcho(t, n)
		c := NewClient(n, "echo", addr)
		defer c.Close()
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			done <- c.Call(ctx, "Slow", echoReq{}, nil)
		}()
		vtime.Wait() // the call is parked in its handler
		start := time.Now()
		go srv.Close() // Close waits for handlers; Slow exits via ctx cancel on conn close or deadline
		if err := <-done; err == nil {
			t.Fatal("expected error after server close")
		}
		if took := time.Since(start); took != 0 {
			t.Fatalf("call failed %v after server close, want at once", took)
		}
	})
}

func TestDialError(t *testing.T) {
	n := NewMem()
	c := NewClient(n, "ghost", "nowhere:1")
	defer c.Close()
	if err := c.Call(context.Background(), "X", echoReq{}, nil); err == nil {
		t.Fatal("want dial error")
	}
}

func TestClientReconnects(t *testing.T) {
	n := NewMem()
	addr, srv := startEcho(t, n)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	var resp echoResp
	if err := c.Call(context.Background(), "Echo", echoReq{Text: "a"}, &resp); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Restart on the same address.
	_, srv2 := func() (string, *Server) {
		s := NewServer("echo")
		s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) { return payload, nil })
		if _, err := s.Start(n, addr); err != nil {
			t.Fatalf("restart: %v", err)
		}
		return addr, s
	}()
	defer srv2.Close()
	// The parked conn is dead; the client redials below the call.
	if err := c.Call(context.Background(), "Echo", echoReq{Text: "b"}, &echoResp{}); err != nil {
		t.Fatalf("client did not recover: %v", err)
	}
}

func TestInterceptorsOrderAndHeaders(t *testing.T) {
	n := NewMem()
	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	s := NewServer("svc")
	s.Use(func(ctx *Ctx, payload []byte, next Handler) ([]byte, error) {
		record("srv1-pre")
		resp, err := next(ctx, payload)
		record("srv1-post")
		return resp, err
	})
	s.Use(func(ctx *Ctx, payload []byte, next Handler) ([]byte, error) {
		record("srv2-pre")
		if ctx.Trace != (transport.SpanContext{TraceID: 5, SpanID: 6}) {
			return nil, Errorf(CodeBadRequest, "trace lost: %+v", ctx.Trace)
		}
		return next(ctx, payload)
	})
	s.Handle("M", func(ctx *Ctx, payload []byte) ([]byte, error) {
		record("handler")
		return nil, nil
	})
	addr, err := s.Start(n, "svc:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(n, "svc", addr,
		WithMiddleware(func(next transport.Invoker) transport.Invoker {
			return func(ctx context.Context, call *transport.Call) error {
				record("cli1-pre")
				call.Trace = transport.SpanContext{TraceID: 5, SpanID: 6}
				err := next(ctx, call)
				record("cli1-post")
				return err
			}
		}))
	defer c.Close()
	if err := c.Call(context.Background(), "M", nil, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"cli1-pre", "srv1-pre", "srv2-pre", "handler", "srv1-post", "cli1-post"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestDispatchFollowsLateRegistration pins the lock-free dispatch table to
// registrations made after it was first published: a Handle on a serving
// server is callable, and a Use after Handle wraps the methods already there.
func TestDispatchFollowsLateRegistration(t *testing.T) {
	n := NewMem()
	s := NewServer("svc")
	reply := func(text string) Handler {
		return func(ctx *Ctx, payload []byte) ([]byte, error) { return []byte(text), nil }
	}
	s.Handle("Early", reply("early"))
	addr, err := s.Start(n, "svc:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "svc", addr)
	defer c.Close()
	call := func(method string) string {
		t.Helper()
		out, err := c.CallRaw(context.Background(), method, nil)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return string(out)
	}
	if got := call("Early"); got != "early" {
		t.Fatalf("Early = %q", got)
	}
	s.Handle("Late", reply("late"))
	if got := call("Late"); got != "late" {
		t.Fatalf("Late (registered after Serve) = %q", got)
	}
	s.Use(func(ctx *Ctx, payload []byte, next Handler) ([]byte, error) {
		out, err := next(ctx, payload)
		return append([]byte("wrapped-"), out...), err
	})
	for method, want := range map[string]string{"Early": "wrapped-early", "Late": "wrapped-late"} {
		if got := call(method); got != want {
			t.Fatalf("%s after Use = %q, want %q", method, got, want)
		}
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	s := NewServer("dup")
	s.Handle("M", func(ctx *Ctx, payload []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate handler")
		}
	}()
	s.Handle("M", func(ctx *Ctx, payload []byte) ([]byte, error) { return nil, nil })
}

func TestMemNetworkIsolation(t *testing.T) {
	n1, n2 := NewMem(), NewMem()
	l, err := n1.Listen("svc:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := n2.Dial("svc:0"); err == nil {
		t.Fatal("networks are not isolated")
	}
	if _, err := n1.Listen("svc:0"); err == nil {
		t.Fatal("duplicate listen allowed")
	}
	if l.Addr().Network() != "mem" || l.Addr().String() != "svc:0" {
		t.Fatalf("addr = %v/%v", l.Addr().Network(), l.Addr().String())
	}
	// After close, dialing fails and the address is reusable.
	l.Close()
	if _, err := n1.Dial("svc:0"); err == nil {
		t.Fatal("dial after close succeeded")
	}
	l2, err := n1.Listen("svc:0")
	if err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	l2.Close()
}

func TestErrorHelpers(t *testing.T) {
	err := NotFoundf("user %d", 7)
	if ErrorCode(err) != CodeNotFound {
		t.Fatal("NotFoundf code")
	}
	if !IsCode(err, CodeNotFound) || IsCode(err, CodeInternal) {
		t.Fatal("IsCode")
	}
	if ErrorCode(errors.New("plain")) != CodeInternal {
		t.Fatal("plain error should map to internal")
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := &frame{
		kind:     kindRequest,
		seq:      77,
		method:   "Compose",
		deadline: 1722470400000000000,
		trace:    transport.SpanContext{TraceID: 0xabc, SpanID: 1},
		payload:  []byte{1, 2, 3},
	}
	out, err := parseBody(frameBody(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.seq != 77 || out.method != "Compose" || out.deadline != in.deadline || out.trace != in.trace || len(out.payload) != 3 {
		t.Fatalf("parsed %+v", out)
	}
	// Error frame carries a code.
	ein := &frame{kind: kindError, seq: 9, code: -42, payload: []byte("msg")}
	eout, err := parseBody(frameBody(t, ein))
	if err != nil {
		t.Fatal(err)
	}
	if eout.code != -42 || string(eout.payload) != "msg" {
		t.Fatalf("error frame %+v", eout)
	}
}

func TestParseFrameCorrupt(t *testing.T) {
	good := frameBody(t, &frame{kind: kindRequest, seq: 1, method: "M", payload: []byte("xyz")})
	for i := 0; i < len(good); i++ {
		if _, err := parseBody(good[:i]); err == nil && i < len(good)-3 {
			// Some prefixes legitimately parse as smaller frames only when
			// truncation falls after the payload length; the payload length
			// check catches the rest.
			_ = err
		}
	}
	if _, err := parseBody(nil); err == nil {
		t.Fatal("empty frame parsed")
	}
	// A request-shaped frame without its flags byte, with a flag bit no
	// field belongs to, or with a deadline or trace pair cut short does not
	// parse, whichever of the three kinds carries it.
	for name, body := range map[string][]byte{
		"no flags":       {kindRequest, 1, 1, 'M'},
		"unknown bit":    {kindRequest, 1, 1, 'M', 1 << 2, 0},
		"high bit":       {kindOneWay, 1, 1, 'M', flagDeadline | 1<<7, 2, 0},
		"short deadline": {kindOneWay, 1, 1, 'M', flagDeadline, 0x80},
		"short trace":    append([]byte{kindStreamOpen, 1, 1, 'M', flagTrace}, make([]byte, 15)...),
	} {
		if f, err := parseBody(body); err == nil {
			t.Errorf("%s: parsed as %+v", name, f)
		}
	}
}

func BenchmarkCallMem(b *testing.B) {
	n := NewMem()
	addr, _ := startEcho(b, n)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	req := echoReq{Text: "benchmark payload of moderate size", N: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp echoResp
		if err := c.Call(context.Background(), "Echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallMemParallel is BenchmarkCallMem with a caller per P on one
// client, the way a tier's handlers share an edge: with -cpu 1,2 it shows
// what reusing a connection across cores costs, which one caller cannot.
func BenchmarkCallMemParallel(b *testing.B) {
	n := NewMem()
	addr, _ := startEcho(b, n)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	req := echoReq{Text: "benchmark payload of moderate size", N: 42}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var resp echoResp
			if err := c.Call(context.Background(), "Echo", req, &resp); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestCallHeaderReachesHandler: a call's deadline and trace pair reach the
// handler — as its context's deadline and as Ctx.Trace — over each
// request-shaped frame (unary, one-way, stream open), and on a hedged
// attempt, which runs on a clone of the call.
func TestCallHeaderReachesHandler(t *testing.T) {
	type seen struct {
		deadline time.Time
		ok       bool
		trace    transport.SpanContext
	}
	got := make(chan seen, 4)
	record := func(ctx *Ctx) {
		dl, ok := ctx.Deadline()
		got <- seen{dl, ok, ctx.Trace}
	}
	n := NewMem()
	s := NewServer("svc")
	s.Handle("Unary", func(ctx *Ctx, payload []byte) ([]byte, error) { record(ctx); return nil, nil })
	s.Handle("OneWay", func(ctx *Ctx, payload []byte) ([]byte, error) { record(ctx); return nil, nil })
	s.HandleStream("Open", func(ctx *Ctx, payload []byte, st *ServerStream) error { record(ctx); return nil })
	hedged := make(chan struct{})
	var attempts atomic.Int32
	s.Handle("Hedged", func(ctx *Ctx, payload []byte) ([]byte, error) {
		record(ctx)
		if attempts.Add(1) == 1 {
			<-hedged // the primary waits for its hedge
		} else {
			close(hedged)
		}
		return nil, nil
	})
	addr, err := s.Start(n, "svc:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := transport.SpanContext{TraceID: 0x1234abcd, SpanID: 0x5678}
	stamp := func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			call.Trace = want
			return next(ctx, call)
		}
	}
	c := NewClient(n, "svc", addr, WithMiddleware(stamp))
	defer c.Close()
	hc := NewClient(n, "svc", addr, WithMiddleware(stamp, transport.Hedge(transport.HedgeConfig{Delay: time.Millisecond})))
	defer hc.Close()
	deadline := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	check := func(how string) {
		t.Helper()
		select {
		case s := <-got:
			if !s.ok || !s.deadline.Equal(deadline) || s.trace != want {
				t.Errorf("%s: handler saw deadline %v (set %v) and trace %+v, want %v and %+v", how, s.deadline, s.ok, s.trace, deadline, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the handler never ran", how)
		}
	}

	if err := c.Call(ctx, "Unary", nil, nil); err != nil {
		t.Fatal(err)
	}
	check("unary")
	if err := c.CallOneWay(ctx, "OneWay", nil); err != nil {
		t.Fatal(err)
	}
	check("one-way")
	st, err := c.Stream(ctx, "Open", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Recv(nil); err != io.EOF {
		t.Fatalf("stream: %v, want io.EOF", err)
	}
	check("stream open")
	if err := hc.Call(ctx, "Hedged", nil, nil); err != nil {
		t.Fatal(err)
	}
	check("primary attempt")
	check("hedged attempt")
}
