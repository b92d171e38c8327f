package rest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// traceMW stamps sc on every call as the caller's span.
func traceMW(sc transport.SpanContext) transport.Middleware {
	return func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			call.Trace = sc
			return next(ctx, call)
		}
	}
}

// net/http's client against the server over real sockets: what HTTP/1.1
// clients other than this package's send must be read and answered as
// net/http's own server would.
func TestNetHTTPClientAgainstServer(t *testing.T) {
	n := &countingNet{Network: rpc.TCP{}}
	addr, _ := startCatalogue(t, n)
	base := "http://" + addr
	tr := &http.Transport{ExpectContinueTimeout: 5 * time.Second}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	do := func(req *http.Request, want int) *http.Response {
		t.Helper()
		res, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Method, req.URL, err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != want {
			t.Fatalf("%s %s: HTTP %d %s, want %d", req.Method, req.URL, res.StatusCode, body, want)
		}
		res.Body = io.NopCloser(bytes.NewReader(body))
		return res
	}
	newReq := func(method, path string, body io.Reader) *http.Request {
		req, err := http.NewRequest(method, base+path, body)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	item := func(res *http.Response) (it item) {
		t.Helper()
		if err := json.NewDecoder(res.Body).Decode(&it); err != nil {
			t.Fatal(err)
		}
		return it
	}

	// Keep-alive: sequential requests share one connection.
	do(newReq("POST", "/items", strings.NewReader(`{"id":"a","name":"sock","price":1}`)), http.StatusOK)
	if got := item(do(newReq("GET", "/items/a", nil), http.StatusOK)); got.Name != "sock" {
		t.Fatalf("GET /items/a = %+v", got)
	}
	if a := n.accepted.Load(); a != 1 {
		t.Fatalf("sequential requests used %d connections, want 1", a)
	}

	// A chunked body (no length known up front) and one sent only after the
	// server's 100 Continue.
	do(newReq("POST", "/items", io.MultiReader(strings.NewReader(`{"id":"chunked",`), strings.NewReader(`"name":"c"}`))), http.StatusOK)
	expect := newReq("POST", "/items", strings.NewReader(`{"id":"expect","name":"e"}`))
	expect.Header.Set("Expect", "100-continue")
	do(expect, http.StatusOK)
	for _, id := range []string{"chunked", "expect"} {
		if got := item(do(newReq("GET", "/items/"+id, nil), http.StatusOK)); got.ID != id {
			t.Fatalf("GET /items/%s = %+v", id, got)
		}
	}

	// HEAD announces the body and sends none; the mux's 404 and 405.
	head := do(newReq("HEAD", "/items/a", nil), http.StatusOK)
	if head.ContentLength <= 0 || head.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("HEAD: length %d, type %q", head.ContentLength, head.Header.Get("Content-Type"))
	}
	do(newReq("GET", "/nowhere", nil), http.StatusNotFound)
	if allow := do(newReq("DELETE", "/items/a", nil), http.StatusMethodNotAllowed).Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 allows %q", allow)
	}

	// A path segment with a space, escaped by the client, matched unescaped.
	do(newReq("POST", "/items", strings.NewReader(`{"id":"The Heap","name":"h"}`)), http.StatusOK)
	if got := item(do(newReq("GET", "/items/The%20Heap", nil), http.StatusOK)); got.Name != "h" {
		t.Fatalf("GET /items/The%%20Heap = %+v", got)
	}

	// Connection: close ends the connection with the response.
	before := n.accepted.Load()
	closing := newReq("GET", "/items/a", nil)
	closing.Close = true
	if res := do(closing, http.StatusOK); !res.Close {
		t.Fatal("Connection: close answered without Connection: close")
	}
	do(newReq("GET", "/items/a", nil), http.StatusOK)
	if a := n.accepted.Load(); a != before+1 {
		t.Fatalf("after Connection: close, %d new connections, want 1", a-before)
	}

	// HTTP/1.0: answered, then the connection ends.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /items/a HTTP/1.0\r\n\r\n") //nolint:errcheck // a failed write fails the read below
	br := bufio.NewReader(conn)
	res, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := item(res); res.StatusCode != http.StatusOK || got.Name != "sock" {
		t.Fatalf("HTTP/1.0 GET: HTTP %d, %+v", res.StatusCode, got)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after an HTTP/1.0 exchange the connection is still open (%v)", err)
	}
}

// The client against net/http's server over real sockets: its requests are
// read as net/http reads them, and net/http's responses — chunked ones
// included — are read back, on one kept-alive connection.
func TestClientAgainstNetHTTPServer(t *testing.T) {
	var dials atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /items/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Dsb-Trace") != "abc" || r.Header.Get("Dsb-Span") != "def" || r.Header.Get("Dsb-Deadline") == "" {
			http.Error(w, `{"code":3,"error":"headers lost"}`, http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(item{ID: r.PathValue("id"), Name: "from net/http"}) //nolint:errcheck
	})
	mux.HandleFunc("POST /items", func(w http.ResponseWriter, r *http.Request) {
		var it item
		if err := json.NewDecoder(r.Body).Decode(&it); err != nil || r.ContentLength <= 0 {
			http.Error(w, `{"code":3,"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		w.(http.Flusher).Flush()      // no length known: the rest goes chunked
		json.NewEncoder(w).Encode(it) //nolint:errcheck
	})
	hs := httptest.NewUnstartedServer(mux)
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	c := NewClient(rpc.TCP{}, "nethttp", strings.TrimPrefix(hs.URL, "http://"), WithMiddleware(traceMW(transport.SpanContext{TraceID: 0xabc, SpanID: 0xdef})))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got item
	if err := c.Do(ctx, "GET", "/items/The Heap", nil, &got); err != nil || got.ID != "The Heap" {
		t.Fatalf("GET = %+v, %v", got, err)
	}
	in := item{ID: "x", Name: "y", Price: 3}
	if err := c.Do(ctx, "POST", "/items", in, &got); err != nil || got != in {
		t.Fatalf("POST (chunked reply) = %+v, %v", got, err)
	}
	err := c.Do(ctx, "GET", "/nowhere", nil, nil)
	if !rpc.IsCode(err, rpc.CodeInternal) || !strings.Contains(err.Error(), "404") {
		t.Fatalf("net/http's 404: %v, want CodeInternal naming the status", err)
	}
	if conns := dials.Load(); conns != 1 {
		t.Fatalf("three sequential calls used %d connections, want 1", conns)
	}
}
