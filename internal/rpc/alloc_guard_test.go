package rpc

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// guardMsg is a minimal registered message so the echo round trip below
// exercises the full fast path — typed request marshaled straight into the
// connection's write segment, typed reply marshaled straight into the
// server's, pooled payload on the client — with a hand-written marshaler
// standing in for codecgen output.
type guardMsg struct {
	N int64
}

func (m *guardMsg) AppendTo(b []byte) ([]byte, error) {
	return codec.AppendInt(b, m.N), nil
}

func (m *guardMsg) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	m.N, b, err = codec.DecInt(b)
	return b, err
}

func init() {
	codec.Register[guardMsg](func(b []byte, v any) ([]byte, error) {
		m := v.(guardMsg)
		return m.AppendTo(b)
	})
}

func startGuardEcho(t testing.TB) (*Client, func()) {
	t.Helper()
	n := NewMem()
	s := NewServer("allocguard")
	// Raw echo: the reply aliases the request payload, a view of the read
	// buffer, which the connection reads over only after the reply frame is
	// written. Keeping the
	// handler body allocation-free isolates the guard below to the RPC
	// runtime itself.
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return payload, nil
	})
	// Typed echo: decode + typed reply, the shape every svcutil
	// handler has. The request value escapes into the codec interfaces
	// (one extra allocation per call, paid by the handler, not the
	// runtime); the benchmark uses this to measure the realistic path.
	s.Handle("TypedEcho", func(ctx *Ctx, payload []byte) ([]byte, error) {
		var req guardMsg
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		return ctx.Reply(&req)
	})
	addr, err := s.Start(n, "allocguard:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "allocguard", addr)
	return c, func() { c.Close(); s.Close() }
}

// TestEchoAllocGuard pins the steady-state allocation count of a unary
// echo round trip over the in-memory network at ≤1 allocation per call.
// The one irreducible allocation is the server-side *Ctx: it cannot be
// pooled, because handlers derive child contexts (context.WithTimeout)
// whose timer goroutines may call parent.Done() after the request
// completes — recycling the Ctx under them is a use-after-free. Everything
// else — frames, payload buffers, reply buffers, call structs, the request
// encoding itself — must come from pools.
func TestEchoAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	c, stop := startGuardEcho(t)
	defer stop()
	ctx := context.Background()
	req := guardMsg{N: 42}
	var resp guardMsg

	call := func() {
		if err := c.Call(ctx, "Echo", &req, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.N != 42 {
			t.Fatalf("resp = %+v", resp)
		}
	}
	// Warm every pool: frames, payload buffers, call structs, the
	// connection's segment and ring.
	for i := 0; i < 2000; i++ {
		call()
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Best-of-N: a single AllocsPerRun can still catch a pool refill; the
	// minimum over several runs is the steady state.
	best := 1 << 30
	for i := 0; i < 5; i++ {
		if got := int(testing.AllocsPerRun(200, call)); got < best {
			best = got
		}
	}
	if best > 1 {
		t.Fatalf("echo round trip allocates %d objects per call, want ≤1 (the server Ctx)", best)
	}
}

// TestCtxSize pins that one allocation's size: every served request makes a
// Ctx, and past 96 bytes it lands in the 112-byte size class.
func TestCtxSize(t *testing.T) {
	if size := unsafe.Sizeof(Ctx{}); size > 96 {
		t.Fatalf("rpc.Ctx is %d bytes, want ≤ 96", size)
	}
}

func BenchmarkEchoFastPath(b *testing.B) {
	c, stop := startGuardEcho(b)
	defer stop()
	ctx := context.Background()
	req := guardMsg{N: 7}
	var resp guardMsg
	for i := 0; i < 100; i++ {
		if err := c.Call(ctx, "Echo", &req, &resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(ctx, "TypedEcho", &req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// idleConnBudget is the live heap one parked connection may hold, both ends
// together: two frameReaders with their 2 KiB read buffers, two connWriters
// keeping only the small frames that crossed them, and the structs around
// them — 5.6 to 6.8 KiB measured; no memPipe ring, which exists only while
// bytes are unread. An edge holds a connection per concurrent call, not two
// in all, so this is what a burst leaves behind per caller — 209 of them on
// the ledger's social_mixed, where 16 KiB read buffers held 36.5 KiB per
// parked connection and 32 KiB ones cost 11 MiB more of peak RSS.
const idleConnBudget = 8 << 10

// TestIdleConnFootprint parks a thousand rpc.Mem connections on one client
// and holds the heap they keep alive to idleConnBudget each, so a change
// cannot quietly make a connection expensive.
func TestIdleConnFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory is not the footprint")
	}
	const conns = 1000
	n := NewMem()
	barrierServer(t, n, "barrier:0", conns)
	c := NewClient(n, "barrier", "barrier:0")
	defer c.Close()

	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	meet(t, c, conns)
	if idle := c.idleConns(); idle != conns {
		t.Fatalf("%d connections parked, want %d", idle, conns)
	}
	per := (heap() - before) / conns
	t.Logf("%d B of live heap per parked connection (budget %d)", per, idleConnBudget)
	if per > idleConnBudget {
		t.Fatalf("a parked connection keeps %d B alive, budget %d", per, idleConnBudget)
	}
}

// idleStreamBudget is the live heap one open, idle stream may hold, both ends
// together: its connection (see idleConnBudget; a stream has one to itself),
// the two streamCores, the server's handler context and three goroutines'
// descriptors — 7.0 to 7.5 KiB measured. Those goroutines are the rest of
// the price: the client's reader of the connection, the server's, and the
// handler; their stacks are not heap.
const (
	idleStreamBudget    = 10 << 10
	goroutinesPerStream = 3
)

// TestIdleStreamFootprint opens a thousand streams on rpc.Mem, leaves them
// idle, and holds what each keeps alive — heap and goroutines — to the budget,
// so a change that re-grows per-stream state fails here, not in a ledger run.
func TestIdleStreamFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory is not the footprint")
	}
	const streams = 1000
	n := NewMem()
	addr, _ := startStreamServer(t, n)
	c := NewClient(n, "stream", addr)
	defer c.Close()

	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before, goroutines := heap(), runtime.NumGoroutine()
	open := make([]*transport.Stream, streams)
	for i := range open {
		var err error
		if open[i], err = c.Stream(context.Background(), "Parked", echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() >= goroutines+goroutinesPerStream*streams })
	per := (heap() - before) / streams
	perG := float64(runtime.NumGoroutine()-goroutines) / streams
	t.Logf("%d B of live heap and %.2f goroutines per open idle stream (budget %d and %d)", per, perG, idleStreamBudget, goroutinesPerStream)
	if per > idleStreamBudget {
		t.Errorf("an open idle stream keeps %d B alive, budget %d", per, idleStreamBudget)
	}
	if perG > goroutinesPerStream {
		t.Errorf("an open idle stream runs %.2f goroutines, budget %d", perG, goroutinesPerStream)
	}
	runtime.KeepAlive(open)
}
