package trace

import (
	"context"
	"errors"
	"testing"
	"time"

	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

func newTestTracer() (*Tracer, *Store, *Collector) {
	store := NewStore()
	col := NewCollector(store, 1024)
	return NewTracer(col), store, col
}

func TestSpanLifecycle(t *testing.T) {
	vtime.Run(t, func() {
		tr, store, col := newTestTracer()
		root := tr.StartSpan("frontend", "ComposePost", KindServer, SpanContext{})
		vtime.Advance(5 * time.Millisecond)
		child := tr.StartSpan("frontend", "text.Process", KindClient, root.Context())
		vtime.Advance(2 * time.Millisecond)
		child.Finish()
		vtime.Advance(time.Millisecond)
		root.Finish()
		col.Close()

		if store.Len() != 1 {
			t.Fatalf("traces = %d, want 1", store.Len())
		}
		id := store.TraceIDs()[0]
		spans := store.Spans(id)
		if len(spans) != 2 {
			t.Fatalf("spans = %d, want 2", len(spans))
		}
		if spans[0].Operation != "ComposePost" {
			t.Fatalf("spans not sorted by start: %v", spans[0].Operation)
		}
		if spans[0].Duration != 8*time.Millisecond {
			t.Fatalf("root duration = %v", spans[0].Duration)
		}
		if spans[1].Parent != spans[0].SpanID {
			t.Fatal("child not parented to root")
		}
	})
}

func TestFinishIdempotent(t *testing.T) {
	tr, store, col := newTestTracer()
	s := tr.StartSpan("svc", "op", KindServer, SpanContext{})
	s.Finish()
	s.Finish()
	col.Close()
	if got := len(store.Spans(store.TraceIDs()[0])); got != 1 {
		t.Fatalf("double finish recorded %d spans", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("svc", "op", KindServer, SpanContext{})
	s.Annotate("k", "v")
	s.SetError(errors.New("x"))
	if s.Context().Valid() {
		t.Fatal("nil tracer span context should be invalid")
	}
	s.Finish() // must not panic
}

func TestContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 7, SpanID: 8}
	ctx := NewContext(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("FromContext on empty ctx should fail")
	}
}

func TestUniqueIDs(t *testing.T) {
	tr, _, col := newTestTracer()
	defer col.Close()
	seen := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		s := tr.StartSpan("svc", "op", KindClient, SpanContext{})
		if seen[s.Context().SpanID] {
			t.Fatalf("duplicate span id after %d spans", i)
		}
		seen[s.Context().SpanID] = true
	}
}

func TestTreeAssembly(t *testing.T) {
	vtime.Run(t, func() {
		tr, store, col := newTestTracer()
		root := tr.StartSpan("nginx", "GET /", KindServer, SpanContext{})
		vtime.Advance(time.Millisecond)
		c1 := tr.StartSpan("nginx", "compose.Call", KindClient, root.Context())
		s1 := tr.StartSpan("compose", "Call", KindServer, c1.Context())
		vtime.Advance(2 * time.Millisecond)
		c2 := tr.StartSpan("compose", "store.Put", KindClient, s1.Context())
		s2 := tr.StartSpan("store", "Put", KindServer, c2.Context())
		vtime.Advance(3 * time.Millisecond)
		s2.Finish()
		c2.Finish()
		s1.Finish()
		c1.Finish()
		root.Finish()
		col.Close()

		tree := store.Tree(store.TraceIDs()[0])
		if tree == nil || tree.Span.Service != "nginx" || tree.Span.Kind != KindServer {
			t.Fatalf("bad root: %+v", tree)
		}
		if len(tree.Children) != 1 {
			t.Fatalf("root children = %d", len(tree.Children))
		}
		// nginx client -> compose server -> compose client -> store server
		depth := 0
		for n := tree; len(n.Children) > 0; n = n.Children[0] {
			depth++
		}
		if depth != 4 {
			t.Fatalf("tree depth = %d, want 4", depth)
		}
		if store.Tree(TraceID(999)) != nil {
			t.Fatal("unknown trace should return nil tree")
		}
	})
}

func TestNetworkVsApplication(t *testing.T) {
	vtime.Run(t, func() {
		tr, store, col := newTestTracer()
		// Client span lasts 10ms; nested server span lasts 6ms => 4ms network.
		c := tr.StartSpan("caller", "svc.Op", KindClient, SpanContext{})
		vtime.Advance(2 * time.Millisecond) // network out
		s := tr.StartSpan("svc", "Op", KindServer, c.Context())
		vtime.Advance(6 * time.Millisecond) // application
		s.Finish()
		vtime.Advance(2 * time.Millisecond) // network back
		c.Finish()
		col.Close()

		bd := store.NetworkVsApplication()
		got := bd["svc"]
		if got.Application != 6*time.Millisecond {
			t.Fatalf("app = %v", got.Application)
		}
		if got.Network != 4*time.Millisecond {
			t.Fatalf("net = %v", got.Network)
		}
	})
}

func TestCriticalPath(t *testing.T) {
	vtime.Run(t, func() {
		tr, store, col := newTestTracer()
		root := tr.StartSpan("fe", "Req", KindServer, SpanContext{})
		// Two parallel children: fast (1ms) and slow (5ms). Critical path must
		// pass through the slow one.
		fast := tr.StartSpan("fast", "F", KindServer, root.Context())
		slow := tr.StartSpan("slow", "S", KindServer, root.Context())
		vtime.Advance(time.Millisecond)
		fast.Finish()
		vtime.Advance(4 * time.Millisecond)
		slow.Finish()
		root.Finish()
		col.Close()

		path := store.CriticalPath(store.TraceIDs()[0])
		if len(path) != 2 {
			t.Fatalf("path len = %d", len(path))
		}
		if path[1].Service != "slow" {
			t.Fatalf("critical path chose %s", path[1].Service)
		}
		if store.CriticalPath(TraceID(12345)) != nil {
			t.Fatal("unknown trace critical path should be nil")
		}
	})
}

func TestServiceLatencies(t *testing.T) {
	vtime.Run(t, func() {
		tr, store, col := newTestTracer()
		for i := 0; i < 10; i++ {
			s := tr.StartSpan("svc", "Op", KindServer, SpanContext{})
			vtime.Advance(time.Millisecond)
			s.Finish()
			// Client spans are excluded from service latency.
			c := tr.StartSpan("svc", "Op", KindClient, SpanContext{})
			vtime.Advance(time.Millisecond)
			c.Finish()
		}
		col.Close()
		lat := store.ServiceLatencies()
		if lat["svc"].Snapshot().Count != 10 {
			t.Fatalf("latency count = %d, want 10 (server spans only)", lat["svc"].Snapshot().Count)
		}
	})
}

func TestCollectorDropsWhenSaturated(t *testing.T) {
	store := NewStore()
	col := NewCollector(store, 1)
	// Stall the store by submitting a burst without giving the drain
	// goroutine a chance; some spans must drop rather than block.
	for i := 0; i < 10000; i++ {
		col.Submit(Span{TraceID: TraceID(i + 1), SpanID: SpanID(i + 1)})
	}
	col.Close()
	if store.Len() == 0 {
		t.Fatal("store is empty")
	}
}

func TestStoreReset(t *testing.T) {
	_, store, col := newTestTracer()
	col.Submit(Span{TraceID: 1, SpanID: 1})
	col.Close()
	store.Reset()
	if store.Len() != 0 || len(store.TraceIDs()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestRPCIntegration verifies spans flow across a real RPC boundary and the
// server span nests under the client span.
func TestRPCIntegration(t *testing.T) {
	store := NewStore()
	col := NewCollector(store, 1024)
	tr := NewTracer(col)

	n := rpc.NewMem()
	s := rpc.NewServer("backend")
	s.Use(ServerInterceptor(tr))
	s.Handle("Do", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		if _, ok := FromContext(ctx); !ok {
			t.Error("no span context inside handler")
		}
		return nil, nil
	})
	addr, err := s.Start(n, "backend:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := rpc.NewClient(n, "backend", addr, rpc.WithMiddleware(ClientMiddleware(tr, "frontend")))
	defer c.Close()
	if err := c.Call(context.Background(), "Do", nil, nil); err != nil {
		t.Fatal(err)
	}
	col.Close()

	if store.Len() != 1 {
		t.Fatalf("traces = %d, want 1", store.Len())
	}
	spans := store.Spans(store.TraceIDs()[0])
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (client+server)", len(spans))
	}
	var client, server Span
	for _, sp := range spans {
		switch sp.Kind {
		case KindClient:
			client = sp
		case KindServer:
			server = sp
		}
	}
	if server.Parent != client.SpanID {
		t.Fatal("server span not child of client span")
	}
	if client.Duration < server.Duration {
		t.Fatalf("client span (%v) should cover server span (%v)", client.Duration, server.Duration)
	}
}

// TestRESTIntoRPCHop: a traced REST call whose handler calls an RPC tier
// makes one trace of four spans, each the child of the one before, and the
// caller's deadline reaches the RPC handler unchanged across both hops.
func TestRESTIntoRPCHop(t *testing.T) {
	store := NewStore()
	col := NewCollector(store, 1024)
	tr := NewTracer(col)
	n := rpc.NewMem()

	var backendDeadline time.Time
	backend := rpc.NewServer("backend")
	backend.Use(ServerInterceptor(tr))
	backend.Handle("Do", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		backendDeadline, _ = ctx.Deadline()
		return nil, nil
	})
	baddr, err := backend.Start(n, "backend:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	down := rpc.NewClient(n, "backend", baddr, rpc.WithMiddleware(ClientMiddleware(tr, "frontend")))
	defer down.Close()

	front := rest.NewServer("frontend")
	front.Use(RESTServerInterceptor(tr))
	front.Handle("GET /do", func(ctx *rest.Ctx, body []byte) (any, error) {
		return nil, down.Call(ctx, "Do", nil, nil)
	})
	faddr, err := front.Start(n, "frontend:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	c := rest.NewClient(n, "frontend", faddr, rest.WithMiddleware(ClientMiddleware(tr, "user")))
	defer c.Close()

	deadline := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := c.Do(ctx, "GET", "/do", nil, nil); err != nil {
		t.Fatal(err)
	}
	col.Close()

	if !backendDeadline.Equal(deadline) {
		t.Errorf("backend deadline %v, want the caller's %v", backendDeadline, deadline)
	}
	if store.Len() != 1 {
		t.Fatalf("traces = %d, want 1", store.Len())
	}
	spans := store.Spans(store.TraceIDs()[0])
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4 (REST client and server, RPC client and server)", len(spans))
	}
	want := []struct{ service, op, kind string }{
		{"user", "GET /do", KindClient},
		{"frontend", "GET /do", KindServer},
		{"frontend", "Do", KindClient},
		{"backend", "Do", KindServer},
	}
	var parent SpanID
	for i, w := range want {
		sp := spans[i]
		if sp.Service != w.service || sp.Operation != w.op || sp.Kind != w.kind || sp.Parent != parent {
			t.Fatalf("span %d = %s %s %s under %x, want %s %s %s under %x",
				i, sp.Service, sp.Operation, sp.Kind, sp.Parent, w.service, w.op, w.kind, parent)
		}
		parent = sp.SpanID
	}
}
