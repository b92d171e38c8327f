package rest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
)

type item struct {
	ID    string  `json:"id"`
	Name  string  `json:"name"`
	Price float64 `json:"price"`
}

func startCatalogue(t testing.TB, n rpc.Network) (string, *Server) {
	t.Helper()
	s := NewServer("catalogue")
	var mu sync.Mutex
	items := map[string]item{}
	s.Handle("POST /items", func(ctx *Ctx, body []byte) (any, error) {
		var it item
		if err := DecodeJSON(body, &it); err != nil {
			return nil, err
		}
		if it.ID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "missing id")
		}
		mu.Lock()
		items[it.ID] = it
		mu.Unlock()
		return it, nil
	})
	s.Handle("GET /items/{id}", func(ctx *Ctx, body []byte) (any, error) {
		mu.Lock()
		it, ok := items[ctx.PathValue("id")]
		mu.Unlock()
		if !ok {
			return nil, rpc.NotFoundf("no item %s", ctx.PathValue("id"))
		}
		return it, nil
	})
	s.Handle("GET /panic", func(ctx *Ctx, body []byte) (any, error) { panic("rest boom") })
	s.Handle("GET /slow", func(ctx *Ctx, body []byte) (any, error) {
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	s.Handle("GET /headers", func(ctx *Ctx, body []byte) (any, error) {
		dl, _ := ctx.Deadline()
		return callHeader{Trace: ctx.Trace, Deadline: dl.UnixNano()}, nil
	})
	addr, err := s.Start(n, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, s
}

func testNetworks(t *testing.T, fn func(t *testing.T, n rpc.Network)) {
	t.Run("mem", func(t *testing.T) { fn(t, rpc.NewMem()) })
	t.Run("tcp", func(t *testing.T) { fn(t, rpc.TCP{}) })
}

func TestCRUD(t *testing.T) {
	testNetworks(t, func(t *testing.T, n rpc.Network) {
		addr, _ := startCatalogue(t, n)
		c := NewClient(n, "catalogue", addr)
		defer c.Close()
		in := item{ID: "sock-1", Name: "wool sock", Price: 9.99}
		var created item
		if err := c.Do(context.Background(), "POST", "/items", in, &created); err != nil {
			t.Fatalf("POST: %v", err)
		}
		if created != in {
			t.Fatalf("created = %+v", created)
		}
		var got item
		if err := c.Do(context.Background(), "GET", "/items/sock-1", nil, &got); err != nil {
			t.Fatalf("GET: %v", err)
		}
		if got != in {
			t.Fatalf("got = %+v", got)
		}
	})
}

func TestNotFoundMapsToCode(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	err := c.Do(context.Background(), "GET", "/items/ghost", nil, nil)
	if !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("want CodeNotFound, got %v", err)
	}
}

// TestMissingRouteMapsToCode: the mux's own 404 and 405 reach a client as
// the coded errors a handler's would, not as a server fault.
func TestMissingRouteMapsToCode(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	ctx := context.Background()
	if err := c.Do(ctx, "GET", "/nowhere", nil, nil); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("GET of a path no route serves: want CodeNotFound, got %v", err)
	}
	if err := c.Do(ctx, "DELETE", "/items/a", nil, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("DELETE on a route that does not take it: want CodeBadRequest, got %v", err)
	}
	var got item
	if err := c.Do(ctx, "POST", "/items", item{ID: "a"}, &got); err != nil || got.ID != "a" {
		t.Fatalf("a route after them: %+v, %v", got, err)
	}
}

func TestBadJSONRejected(t *testing.T) {
	var it item
	if err := DecodeJSON([]byte("{nope"), &it); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("want CodeBadRequest, got %v", err)
	}
}

func TestPanicBecomes500(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	err := c.Do(context.Background(), "GET", "/panic", nil, nil)
	if !rpc.IsCode(err, rpc.CodeInternal) {
		t.Fatalf("want CodeInternal, got %v", err)
	}
	// Server still alive.
	if err := c.Do(context.Background(), "GET", "/items/ghost", nil, nil); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("server dead after panic: %v", err)
	}
}

// callHeader is what the /headers route saw of a request's call header.
type callHeader struct {
	Trace    transport.SpanContext
	Deadline int64
}

// TestHeaderPropagation: a call's trace pair and deadline cross the REST hop
// and reach the handler as Ctx.Trace and its context's deadline.
func TestHeaderPropagation(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	want := transport.SpanContext{TraceID: 0xabcdef0123456789, SpanID: 0x42}
	c := NewClient(n, "catalogue", addr, WithMiddleware(traceMW(want)))
	defer c.Close()
	deadline := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var out callHeader
	if err := c.Do(ctx, "GET", "/headers", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != want || out.Deadline != deadline.UnixNano() {
		t.Fatalf("handler saw %+v, want trace %+v and deadline %d", out, want, deadline.UnixNano())
	}
}

// TestDeadlineHeaderText: the client writes the deadline as decimal unix
// nanoseconds, which the server reads back as it was; a missing or
// malformed deadline reads as none.
func TestDeadlineHeaderText(t *testing.T) {
	want := time.Unix(0, 1722470400123456789)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	wire, err := (&Client{host: "x"}).appendRequest(ctx, nil, "GET", "/p", &transport.Call{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.Get(deadlineKey) != "1722470400123456789" {
		t.Fatalf("wrote %q", wire)
	}
	if got, ok := parseDeadline(req.Header); !ok || !got.Equal(want) {
		t.Fatalf("read back %v, %v, want %v", got, ok, want)
	}
	if _, ok := parseDeadline(http.Header{}); ok {
		t.Error("no Dsb-Deadline read as a deadline")
	}
	for _, v := range []string{"bogus", "1.5", "0x10", "99999999999999999999"} {
		if got, ok := parseDeadline(http.Header{deadlineKey: {v}}); ok {
			t.Errorf("Dsb-Deadline %q read as %v, want none", v, got)
		}
	}
}

// TestTraceHeaderText: the client writes the trace pair as hex, which the
// server reads back as it was; a missing, malformed, overlong or zero ID
// reads as no parent.
func TestTraceHeaderText(t *testing.T) {
	want := transport.SpanContext{TraceID: 0xfedcba9876543210, SpanID: 0x1234}
	wire, err := (&Client{host: "x"}).appendRequest(context.Background(), nil, "GET", "/p", &transport.Call{Trace: want})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.Get(traceKey) != "fedcba9876543210" || req.Header.Get(spanKey) != "1234" {
		t.Fatalf("wrote %q", wire)
	}
	if got := parseTrace(req.Header); got != want {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
	for _, tc := range []struct{ trace, span string }{
		{"", "1"}, {"1", ""}, {"zz", "1"}, {"1", "0x2"}, {"-1", "1"},
		{"0", "1"}, {"1", "0"}, {"10000000000000000", "1"}, {"1", "fffffffffffffffff"},
	} {
		h := http.Header{}
		if tc.trace != "" {
			h.Set(traceKey, tc.trace)
		}
		if tc.span != "" {
			h.Set(spanKey, tc.span)
		}
		if got := parseTrace(h); got != (transport.SpanContext{}) {
			t.Errorf("Dsb-Trace %q, Dsb-Span %q read as %+v, want no parent", tc.trace, tc.span, got)
		}
	}
}

func TestContextTimeout(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Do(ctx, "GET", "/slow", nil, nil)
	if err == nil {
		t.Fatal("want timeout error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout not honored")
	}
}

func TestUnknownRoute(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	if err := c.Do(context.Background(), "GET", "/definitely/not/here", nil, nil); err == nil {
		t.Fatal("want error for unknown route")
	}
}

func TestConcurrentRequests(t *testing.T) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			it := item{ID: string(rune('a' + i%26)), Name: "x", Price: 1}
			if err := c.Do(context.Background(), "POST", "/items", it, nil); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkRESTCallMem(b *testing.B) {
	n := rpc.NewMem()
	addr, _ := startCatalogue(b, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	if err := c.Do(context.Background(), "POST", "/items", item{ID: "bench", Name: "n", Price: 2}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var it item
		if err := c.Do(context.Background(), "GET", "/items/bench", nil, &it); err != nil {
			b.Fatal(err)
		}
	}
}

// countingNet counts the connections a server accepts and closes, and the
// bytes it reads from them.
type countingNet struct {
	rpc.Network
	accepted, closed atomic.Int32
	read             atomic.Int64
}

func (n *countingNet) Listen(addr string) (net.Listener, error) {
	l, err := n.Network.Listen(addr)
	return &countingListener{Listener: l, n: n}, err
}

type countingListener struct {
	net.Listener
	n *countingNet
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n.accepted.Add(1)
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n    *countingNet
	once sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	c.once.Do(func() { c.n.closed.Add(1) })
	return c.Conn.Close()
}

// TestCloseReapsIdleKeepAlive pins the two lifetimes of a server
// connection: sequential requests ride one kept-alive connection, and Close
// closes that idle connection under its parked read — returning at once,
// not when the client hangs up — after which a request fails.
func TestCloseReapsIdleKeepAlive(t *testing.T) {
	n := &countingNet{Network: rpc.NewMem()}
	addr, s := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	ctx := context.Background()
	if err := c.Do(ctx, "POST", "/items", item{ID: "a", Name: "sock"}, nil); err != nil {
		t.Fatal(err)
	}
	var got item
	if err := c.Do(ctx, "GET", "/items/a", nil, &got); err != nil || got.Name != "sock" {
		t.Fatalf("GET = %+v, %v", got, err)
	}
	if a := n.accepted.Load(); a != 1 {
		t.Fatalf("two sequential requests used %d connections, want 1 kept alive", a)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited on an idle keep-alive connection")
	}
	if cl := n.closed.Load(); cl != 1 {
		t.Fatalf("Close closed %d connections, want 1", cl)
	}
	if err := c.Do(ctx, "GET", "/items/a", nil, &got); err == nil {
		t.Fatal("request after Close succeeded")
	}
}

// A body past the limit used to be cut at 16 MiB without a word, so the
// JSON decoder met a prefix and the caller a syntax error about a document
// that was well formed. Both directions now refuse it with a coded error.
func TestBodyOverLimitIsACodedError(t *testing.T) {
	n := rpc.NewMem()
	s := NewServer("big")
	handled := false
	s.Handle("POST /in", func(ctx *Ctx, body []byte) (any, error) {
		handled = true
		return nil, nil
	})
	s.Handle("GET /out", func(ctx *Ctx, body []byte) (any, error) {
		return strings.Repeat("a", maxBody), nil // two quotes past the limit as JSON
	})
	addr, err := s.Start(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Request side: a declared length past the limit is refused before a
	// byte of the body is read, and the connection — its unread body in the
	// way of any next request — ends with the answer.
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /in HTTP/1.1\r\nHost: big\r\nContent-Length: %d\r\n\r\n", maxBody+1)
	br := bufio.NewReader(conn)
	res, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(res.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusBadRequest || eb.Code != rpc.CodeBadRequest || !strings.Contains(eb.Error, "exceeds") || handled {
		t.Fatalf("oversize request: HTTP %d, %+v, handler ran: %v; want 400, CodeBadRequest naming the limit, no handler", res.StatusCode, eb, handled)
	}
	if !res.Close {
		t.Fatal("oversize request: the connection stays open in front of an unread body")
	}

	c := NewClient(n, "big", addr)
	defer c.Close()
	var out string
	err = c.Do(context.Background(), "GET", "/out", nil, &out)
	if !rpc.IsCode(err, rpc.CodeInternal) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize reply: %v, want CodeInternal naming the limit", err)
	}

	// An undeclared length is caught while reading, and at the limit passes.
	if _, err := readBody(io.LimitReader(zeros{}, maxBody+1), -1); !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("oversize stream: %v, want errBodyTooLarge", err)
	}
	if body, err := readBody(io.LimitReader(zeros{}, maxBody), -1); err != nil || len(body) != maxBody {
		t.Fatalf("stream at the limit: %d bytes, %v", len(body), err)
	}
}

// zeros is an endless reader.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// Interceptors wrap a route whichever side of Handle they were installed
// on, run outermost first, and every query parameter reads from one parse.
func TestInterceptorOrderAndQuery(t *testing.T) {
	n := rpc.NewMem()
	s := NewServer("chain")
	var order []string
	tag := func(name string) Interceptor {
		return func(ctx *Ctx, body []byte, next Handler) (any, error) {
			order = append(order, name)
			return next(ctx, body)
		}
	}
	s.Use(tag("first"))
	s.Handle("GET /q", func(ctx *Ctx, body []byte) (any, error) {
		if body != nil {
			t.Errorf("body-less request handed a %d-byte body", len(body))
		}
		return []string{ctx.Query("a"), ctx.Query("b"), ctx.Query("missing")}, nil
	})
	s.Use(tag("second"))
	addr, err := s.Start(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "chain", addr)
	defer c.Close()
	var got []string
	if err := c.Do(context.Background(), "GET", "/q?a=1&b=two+words", nil, &got); err != nil {
		t.Fatal(err)
	}
	if want := []string{"1", "two words", ""}; !slices.Equal(got, want) {
		t.Fatalf("query = %q, want %q", got, want)
	}
	if want := []string{"first", "second"}; !slices.Equal(order, want) {
		t.Fatalf("interceptors ran %q, want %q", order, want)
	}
}
