package rpc

// Ownership, death and recovery of pooled client connections: one call per
// connection at a time, abandoned connections closed instead of reused,
// calls racing Close, and re-dial after the peer goes away. All of these run
// under -race in `make check`.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// startEchoAt boots a minimal echo server on a fixed address, so a
// replacement can come up at the same place after a kill.
func startEchoAt(t testing.TB, network Network, addr string) *Server {
	t.Helper()
	s := NewServer("echo")
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if _, err := s.Start(network, addr); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := codec.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLateReplyAfterAbandonDiscarded abandons a call at its deadline while
// the server is still working. The connection it rode is closed, not parked:
// the late reply has nowhere to land, and the next call on the same client
// dials afresh and reads its own reply.
func TestLateReplyAfterAbandonDiscarded(t *testing.T) {
	mem := NewMem()
	n := &connGrabber{Network: mem}
	s := NewServer("slow")
	release := make(chan struct{})
	s.Handle("Slow", func(ctx *Ctx, payload []byte) ([]byte, error) {
		<-release
		return []byte("stale"), nil
	})
	s.Handle("Fast", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return []byte("fresh"), nil
	})
	addr, err := s.Start(mem, "slow:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(n, "slow", addr)
	defer c.Close()
	// Deferred last, so it runs first: a failed check must not leave s.Close
	// waiting on the parked handler until the test binary times out.
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = c.CallRaw(ctx, "Slow", nil)
	if !IsCode(err, CodeDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want CodeDeadline wrapping DeadlineExceeded", err)
	}
	abandoned := n.dialed(t, 1)[0]
	if _, err := abandoned.Write([]byte{0}); err == nil {
		t.Fatal("the abandoned call's connection is still open")
	}
	if idle := c.idleConns(); idle != 0 {
		t.Fatalf("%d connections parked after an abandoned call, want 0", idle)
	}
	unblock() // the stale reply goes out on the closed connection

	out, err := c.CallRaw(context.Background(), "Fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "fresh" {
		t.Fatalf("reply = %q; the abandoned call's late reply leaked", out)
	}
	n.dialed(t, 2)
}

// dialed returns the connections handed out so far, which must number want.
func (g *connGrabber) dialed(t *testing.T, want int) []net.Conn {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.conns) != want {
		t.Fatalf("%d connections dialed, want %d", len(g.conns), want)
	}
	return g.conns
}

// idleConns counts the parked connections.
func (c *Client) idleConns() int {
	return c.stack.idleConns()
}

// idleConns counts the parked connections, over every P's list.
func (s *ConnStack[S]) idleConns() int {
	s.lockAll()
	defer s.unlockAll()
	n := 0
	for i := range s.idle {
		n += len(s.idle[i].conns)
	}
	return n
}

// TestConnStackPerPLists drives the per-P idle lists by explicit P index and
// holds them to the behaviour of the one stack they replace: a connection
// parked on one P is taken from another before anything is dialed, closeIdle
// and Close reach every list, and an index past the lists — GOMAXPROCS raised
// after the stack was made — stays in range. Then callers on every P share
// the lists at once, which `make conn-stress` repeats under -race.
func TestConnStackPerPLists(t *testing.T) {
	const lists = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lists))
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	startEchoAt(t, mem, "echo:0")
	s := NewConnStack(n, "rpc", "echo", "echo:0", func(net.Conn) struct{} { return struct{}{} })
	defer s.Close()
	if len(s.idle) != lists {
		t.Fatalf("%d idle lists at GOMAXPROCS %d", len(s.idle), lists)
	}
	checkOut := func(p int) *Conn[struct{}] {
		t.Helper()
		cn, _, err := s.checkOut(p)
		if err != nil {
			t.Fatal(err)
		}
		return cn
	}
	closed := func(cn *Conn[struct{}]) bool {
		_, err := cn.NC.Write([]byte{0})
		return err != nil
	}

	// Parked from P 0, taken from P 1 and P 2: still one dial.
	cn := checkOut(0)
	for p := 1; p < lists; p++ {
		s.park(p-1, cn)
		if got := checkOut(p); got != cn {
			t.Fatalf("P %d dialed past the connection parked on P %d", p, p-1)
		}
	}
	if got := n.dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}

	// An index at or past the lists parks and checks out in range.
	s.park(lists, cn)
	if got := checkOut(2*lists + 1); got != cn || n.dials.Load() != 1 {
		t.Fatal("an index past the lists did not find the parked connection")
	}

	// closeIdle, then Close, closes what is parked on every list.
	conns := make([]*Conn[struct{}], 2*lists)
	for i := range conns {
		conns[i] = checkOut(i)
	}
	for i, cn := range conns {
		s.park(i, cn)
	}
	if idle := s.idleConns(); idle != len(conns) {
		t.Fatalf("%d parked, want %d", idle, len(conns))
	}
	s.closeIdle()
	for i, cn := range conns {
		if !closed(cn) {
			t.Fatalf("closeIdle left the connection parked on P %d open", i%lists)
		}
	}
	for i := range conns {
		conns[i] = checkOut(i)
	}
	for i, cn := range conns {
		s.park(i, cn)
	}
	s.Close()
	for i, cn := range conns {
		if !closed(cn) {
			t.Fatalf("Close left the connection parked on P %d open", i%lists)
		}
	}

	// Callers on every P at once: no more connections than callers, and
	// every one parked again once they are done.
	const callers = 8
	s = NewConnStack(n, "rpc", "echo", "echo:0", func(net.Conn) struct{} { return struct{}{} })
	defer s.Close()
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				cn, _, err := s.checkOut(procID())
				if err != nil {
					t.Error(err)
					return
				}
				s.park(procID(), cn)
			}
		}()
	}
	wg.Wait()
	if open, idle := len(s.conns), s.idleConns(); open > callers || idle != open {
		t.Fatalf("%d callers: %d connections, %d parked", callers, open, idle)
	}
}

// TestConnStackBoundAcrossPs is the concurrent phase of
// TestConnStackPerPLists at more Ps and twice the callers per P: a caller
// that misses its own list must not dial while a connection is parked on a
// list it looked at before, so the edge never holds more connections than
// callers. `make conn-stress` repeats it under -race.
func TestConnStackBoundAcrossPs(t *testing.T) {
	const lists, callers = 4, 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lists))
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	startEchoAt(t, mem, "echo:0")
	s := NewConnStack(n, "rpc", "echo", "echo:0", func(net.Conn) struct{} { return struct{}{} })
	defer s.Close()
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				cn, _, err := s.checkOut(procID())
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // hand the P to another caller while this one holds a connection
				s.park(procID(), cn)
			}
		}()
	}
	wg.Wait()
	if open, idle := len(s.conns), s.idleConns(); open > callers || idle != open || n.dials.Load() != int64(open) {
		t.Fatalf("%d callers on %d Ps: %d connections, %d parked, %d dials", callers, lists, open, idle, n.dials.Load())
	}
}

// TestStealHoldsListsItScanned stops a steal between two lists — the test
// holds list 1's lock — and asserts that list 0, which the scan has passed,
// stays locked by it until it decides: a connection parked there behind the
// scan would be missed, and the edge would dial one more than its callers.
// A steal that locks one list at a time fails here, where the concurrent
// bound tests need two such misses to compound before they see one.
func TestStealHoldsListsItScanned(t *testing.T) {
	const lists = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lists))
	s := NewConnStack(NewMem(), "rpc", "echo", "echo:0", func(net.Conn) struct{} { return struct{}{} })
	defer s.Close()
	s.idle[1].mu.Lock()
	release := sync.OnceFunc(s.idle[1].mu.Unlock)
	defer release() // before Close, which takes every list's lock
	found := make(chan *Conn[struct{}], 1)
	go func() { found <- s.steal(0) }()

	// Wait for the scan to take list 0, then hold it to keeping it.
	held := 0
	for deadline := time.Now().Add(5 * time.Second); held < 1000 && time.Now().Before(deadline); runtime.Gosched() {
		if s.idle[0].mu.TryLock() {
			s.idle[0].mu.Unlock()
			if held > 0 {
				t.Fatalf("the scan let go of list 0 after %d probes, before it decided: a connection parked there now is missed", held)
			}
			continue
		}
		held++
	}
	if held == 0 {
		t.Fatal("the scan never held list 0 while it waited on list 1")
	}
	select {
	case <-found:
		t.Fatal("the scan decided while list 1 was held")
	default:
	}
	release()
	if cn := <-found; cn != nil {
		t.Fatalf("steal found %v on empty lists", cn)
	}
}

// TestIdleListsOwnCacheLines pins the padding of the per-P idle lists: a
// full 64-byte line lies between what one list's callers write (its lock and
// slice header) and the next list's, so wherever the array starts — the
// allocator puts an 8-byte header before a large one — no line holds both.
// Unpadded, a list is 32 bytes and two Ps' lists share every line.
func TestIdleListsOwnCacheLines(t *testing.T) {
	written := unsafe.Sizeof(sync.Mutex{}) + unsafe.Sizeof([]*Conn[struct{}](nil))
	if size := unsafe.Sizeof(idleList[struct{}]{}); size < written+cacheLine {
		t.Fatalf("idleList is %d bytes, %d of them written: two Ps' lists can share a %d-byte line", size, written, cacheLine)
	}
}

// TestConcurrentFailAndSend races calls against Client.Close on a server
// that never answers: every call in flight must fail, none may hang, calls
// after Close are refused, and the client ends up holding no connection.
func TestConcurrentFailAndSend(t *testing.T) {
	n := NewMem()
	s := startEchoAt(t, n, "echo:0")
	c := NewClient(n, "echo", "echo:0")
	if _, err := c.CallRaw(context.Background(), "Echo", []byte("warm")); err != nil {
		t.Fatal(err) // leaves one connection parked for Close to close
	}
	s.Hang()

	const callers = 16
	var started, wg sync.WaitGroup
	started.Add(callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			_, err := c.CallRaw(context.Background(), "Echo", []byte("x"))
			errs <- err
		}()
	}
	started.Wait()
	c.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("calls in flight never resolved after Client.Close")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			t.Error("got a reply from a server that never replies")
		}
	}
	if _, err := c.CallRaw(context.Background(), "Echo", nil); !errors.Is(err, errClientClosed) {
		t.Fatalf("call after Close: %v, want %v", err, errClientClosed)
	}
	open, idle := c.openConns(), c.idleConns()
	if open != 0 || idle != 0 {
		t.Fatalf("after Close the client holds %d connections (%d parked), want none", open, idle)
	}
}

// countingNetwork counts dials, to observe re-dial behaviour.
type countingNetwork struct {
	Network
	dials atomic.Int64
}

func (n *countingNetwork) Dial(addr string) (net.Conn, error) {
	n.dials.Add(1)
	return n.Network.Dial(addr)
}

// TestPoolRedialAfterConnDeath kills the server out from under a parked
// connection and brings a replacement up on the same address. The dead
// connection fails at the write, where the frame provably never left, so
// the very next call redials and succeeds — no caller sees the restart.
func TestPoolRedialAfterConnDeath(t *testing.T) {
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	s1 := startEchoAt(t, mem, "echo:0")
	c := NewClient(n, "echo", "echo:0")
	defer c.Close()

	if _, err := c.CallRaw(context.Background(), "Echo", mustMarshal(t, echoReq{Text: "a", N: 1})); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	startEchoAt(t, mem, "echo:0")

	if _, err := c.CallRaw(context.Background(), "Echo", mustMarshal(t, echoReq{Text: "b", N: 1})); err != nil {
		t.Fatalf("first call after the peer restarted: %v", err)
	}
	if got := n.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (one per server generation)", got)
	}
}

// TestConcurrentRedialKeepsOneConn hammers a client from many goroutines
// right after its one parked connection died: one caller finds the corpse
// and redials past it, the rest dial their own, and every call succeeds.
func TestConcurrentRedialKeepsOneConn(t *testing.T) {
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	s1 := startEchoAt(t, mem, "echo:0")
	c := NewClient(n, "echo", "echo:0")
	defer c.Close()

	if _, err := c.CallRaw(context.Background(), "Echo", mustMarshal(t, echoReq{Text: "warm", N: 1})); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	startEchoAt(t, mem, "echo:0")

	payload := mustMarshal(t, echoReq{Text: "x", N: 1})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.CallRaw(context.Background(), "Echo", payload); err != nil {
				t.Errorf("call after the peer restarted: %v", err)
			}
		}()
	}
	wg.Wait()
}

// resettingPeer is a listener that accepts its first `resets` connections
// only to close them — a peer that crashed with the connection still open —
// and a Network whose Dial returns such a connection only once the server
// side is closed, so what the client then does with it is not a race.
type resettingPeer struct {
	Network
	closed chan struct{} // one token per connection reset
	dials  atomic.Int64
}

// startResettingPeer resets the first `resets` connections to srv's listener
// at addr and serves the rest.
func startResettingPeer(t *testing.T, network Network, srv *Server, addr string, resets int) (*resettingPeer, string) {
	t.Helper()
	l, err := network.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &resettingPeer{Network: network, closed: make(chan struct{}, resets)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < resets; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Close()
			p.closed <- struct{}{}
		}
		srv.Serve(l) //nolint:errcheck // the replacement generation
	}()
	t.Cleanup(func() { srv.Close(); l.Close(); <-done })
	return p, l.Addr().String()
}

func (p *resettingPeer) Dial(addr string) (net.Conn, error) {
	conn, err := p.Network.Dial(addr)
	if err == nil && p.dials.Add(1) <= int64(cap(p.closed)) {
		<-p.closed
	}
	return conn, err
}

// countingEcho is an echo server that counts its executions.
func countingEcho() (*Server, *atomic.Int64) {
	var runs atomic.Int64
	srv := NewServer("echo")
	srv.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		runs.Add(1)
		return payload, nil
	})
	return srv, &runs
}

// TestDeadPooledConnRedialTransparent models a peer that crashed with the
// conn still open: the listener accepts the first conn and closes it. On
// rpc.Mem the write fails — the frame provably never left — so the client
// redials once below the retry middleware and succeeds, without charging
// the retry token budget.
func TestDeadPooledConnRedialTransparent(t *testing.T) {
	srv, runs := countingEcho()
	n, addr := startResettingPeer(t, NewMem(), srv, "echo:0", 1)
	var stats transport.Stats
	c := NewClient(n, "echo", addr,
		WithMiddleware(transport.Retry(transport.RetryConfig{Stats: &stats})))
	defer c.Close()

	out, err := c.CallRaw(context.Background(), "Echo", []byte("hi"))
	if err != nil {
		t.Fatalf("call through dead pooled conn: %v", err)
	}
	if string(out) != "hi" {
		t.Fatalf("reply = %q, want %q", out, "hi")
	}
	if got := n.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (dead conn + one transparent redial)", got)
	}
	if got := stats.Retries.Value(); got != 0 {
		t.Fatalf("middleware retries = %d, want 0 (pool redial must not charge the budget)", got)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

// TestDeadConnLostInFlightTCP is the TCP twin: a socket the peer has closed
// still takes the write, and only the read sees the end. The frame may have
// been delivered, so there is no transparent redial: the call fails with
// the coded retryable error — it does not hang and nothing runs twice — and
// the next call dials afresh.
func TestDeadConnLostInFlightTCP(t *testing.T) {
	srv, runs := countingEcho()
	n, addr := startResettingPeer(t, TCP{}, srv, "127.0.0.1:0", 1)
	c := NewClient(n, "echo", addr)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.CallRaw(ctx, "Echo", []byte("hi"))
	if !IsCode(err, CodeUnavailable) || !transport.Retryable(err) {
		t.Fatalf("call on a reset socket: %v, want retryable CodeUnavailable", err)
	}
	if dials, ran := n.dials.Load(), runs.Load(); dials != 1 || ran != 0 {
		t.Fatalf("dials = %d, handler runs = %d; want 1 and 0 (lost in flight is not redialed)", dials, ran)
	}
	out, err := c.CallRaw(ctx, "Echo", []byte("again"))
	if err != nil || string(out) != "again" {
		t.Fatalf("next call: %q, %v", out, err)
	}
	if dials, ran := n.dials.Load(), runs.Load(); dials != 2 || ran != 1 {
		t.Fatalf("dials = %d, handler runs = %d; want 2 and 1", dials, ran)
	}
}

// TestDeadPooledConnRedialsOnlyOnce: against a peer that resets every conn,
// the transparent redial is bounded to a single fresh dial — the error then
// surfaces to the retry layer, which does pay the budget.
func TestDeadPooledConnRedialsOnlyOnce(t *testing.T) {
	n, addr := startResettingPeer(t, NewMem(), NewServer("echo"), "echo:0", 2)
	c := NewClient(n, "echo", addr)
	defer c.Close()
	if _, err := c.CallRaw(context.Background(), "Echo", []byte("hi")); err == nil {
		t.Fatal("call to always-resetting peer succeeded")
	}
	if got := n.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (original + exactly one redial)", got)
	}
}

// TestStaleParkedConnsSkipped: connections that died while parked fail at
// the write, where the frame provably never left, so a call works through
// them to a fresh dial without failing — however many the restart left.
func TestStaleParkedConnsSkipped(t *testing.T) {
	const k = 4
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	s1 := barrierServer(t, mem, "echo:0", k)
	c := NewClient(n, "echo", "echo:0")
	defer c.Close()
	meet(t, c, k) // k connections parked
	s1.Close()
	startEchoAt(t, mem, "echo:0")

	out, err := c.CallRaw(context.Background(), "Echo", []byte("b"))
	if err != nil || string(out) != "b" {
		t.Fatalf("first call after the peer restarted: %q, %v", out, err)
	}
	if got := n.dials.Load(); got != k+1 {
		t.Fatalf("dials = %d, want %d (one fresh dial past %d stale conns)", got, k+1, k)
	}
	if idle := c.idleConns(); idle != 1 {
		t.Fatalf("%d connections parked, want 1 (the stale ones are gone)", idle)
	}
}

// barrierServer answers "Meet" only once `parties` calls are inside the
// handler together, so the callers provably overlap.
func barrierServer(t testing.TB, n Network, addr string, parties int) *Server {
	t.Helper()
	var arrived sync.WaitGroup
	arrived.Add(parties)
	s := NewServer("barrier")
	s.Handle("Meet", func(ctx *Ctx, payload []byte) ([]byte, error) {
		arrived.Done()
		arrived.Wait()
		return payload, nil
	})
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) { return payload, nil })
	if _, err := s.Start(n, addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// meet issues k overlapping calls and leaves k connections parked.
func meet(t testing.TB, c *Client, k int) {
	t.Helper()
	pend := make([]*Pending, k)
	for i := range pend {
		pend[i] = c.Go(context.Background(), "Meet", nil, nil)
	}
	for _, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSerialCallsOneConnNoGoroutine: a serial caller dials once, and the
// client side of a connection is no goroutine at all — the caller reads its
// own reply — so the only goroutine a client's first call adds to the
// process is the server's for that connection.
func TestSerialCallsOneConnNoGoroutine(t *testing.T) {
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	startEchoAt(t, mem, "echo:0")
	c := NewClient(n, "echo", "echo:0")
	defer c.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		out, err := c.CallRaw(context.Background(), "Echo", []byte("x"))
		if err != nil || string(out) != "x" {
			t.Fatalf("call %d: %q, %v", i, out, err)
		}
	}
	// Not !=: a goroutine of an earlier test may still be on its way out.
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Fatalf("200 serial calls left %d goroutines more than before, want 1 (the server's end of the connection)", got-before)
	}
	// One-way frames ride the same connection, and a call behind them too.
	for i := 0; i < 200; i++ {
		if err := c.CallOneWay(context.Background(), "Echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CallRaw(context.Background(), "Echo", nil); err != nil {
		t.Fatal(err)
	}
	if got := n.dials.Load(); got != 1 {
		t.Fatalf("401 serial calls dialed %d connections, want 1", got)
	}
}

// TestConcurrentCallsOneConnEach: k overlapping calls hold k connections,
// all k are parked afterwards, and later calls reuse them instead of dialing.
func TestConcurrentCallsOneConnEach(t *testing.T) {
	const k = 12
	mem := NewMem()
	n := &countingNetwork{Network: mem}
	barrierServer(t, mem, "barrier:0", k)
	c := NewClient(n, "barrier", "barrier:0")
	defer c.Close()

	meet(t, c, k)
	if dials, idle := n.dials.Load(), c.idleConns(); dials != k || idle != k {
		t.Fatalf("%d overlapping calls: %d dials, %d parked; want %d and %d", k, dials, idle, k, k)
	}
	for i := 0; i < 3*k; i++ {
		if _, err := c.CallRaw(context.Background(), "Echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	if dials, idle := n.dials.Load(), c.idleConns(); dials != k || idle != k {
		t.Fatalf("after serial reuse: %d dials, %d parked; want %d and %d", dials, idle, k, k)
	}
}

// TestCloseWithParkedConns: Client.Close closes parked connections (the
// server's end of each sees the end and its goroutine exits), and
// Server.Close returns while every one of its connections is idle, parked
// in Read.
func TestCloseWithParkedConns(t *testing.T) {
	const k = 8
	n := NewMem()
	s := barrierServer(t, n, "barrier:0", k)

	c := NewClient(n, "barrier", "barrier:0")
	meet(t, c, k)
	if got := serverConns(s); got != k {
		t.Fatalf("server holds %d connections, want %d", got, k)
	}
	c.Close()
	waitFor(t, func() bool { return serverConns(s) == 0 })

	// A second client parks its own connections; the server closes under them.
	c2 := NewClient(n, "barrier", "barrier:0")
	defer c2.Close()
	if _, err := c2.CallRaw(context.Background(), "Echo", nil); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on idle connections")
	}
}

// TestPipelinedRawFramesAnsweredInOrder: the server does not depend on its
// clients' one-call-at-a-time discipline. A hand-written peer that writes a
// burst of requests on one connection gets every one answered, in order —
// small frames behind ones too large for the read buffer and large ones
// behind small, so a frame read into a borrowed buffer starts in the same
// read as the end of the one before it, at both ends.
func TestPipelinedRawFramesAnsweredInOrder(t *testing.T) {
	n := NewMem()
	startEchoAt(t, n, "echo:0")
	conn, err := n.Dial("echo:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const burst = 50
	payload := func(i int) []byte {
		sizes := []int{1, readBufSize + 1, 7, 3 * readBufSize, readBufSize - 16}
		return bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])
	}
	var wire []byte
	for i := 1; i <= burst; i++ {
		wire = append(wire, encodeWire(t, &frame{kind: kindRequest, seq: uint64(i), method: "Echo", payload: payload(i)})...)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn)
	for i := 1; i <= burst; i++ {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.kind != kindReply || f.seq != uint64(i) || !bytes.Equal(f.payload, payload(i)) {
			t.Fatalf("reply %d = kind %d seq %d, %d payload bytes", i, f.kind, f.seq, len(f.payload))
		}
	}
}

// TestHungServerDropsRequests: a hung server reads frames but never answers,
// so callers burn their deadline (the crashed-but-connected failure mode the
// chaos experiment relies on); Resume restores dispatch, on new connections.
func TestHungServerDropsRequests(t *testing.T) {
	n := NewMem()
	s := startEchoAt(t, n, "echo:9")
	c := NewClient(n, "echo", "echo:9")
	defer c.Close()

	if _, err := c.CallRaw(context.Background(), "Echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	s.Hang()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.CallRaw(ctx, "Echo", []byte("b")); !IsCode(err, CodeDeadline) {
		t.Fatalf("call to hung server err = %v, want CodeDeadline", err)
	}
	s.Resume()
	out, err := c.CallRaw(context.Background(), "Echo", []byte("c"))
	if err != nil || string(out) != "c" {
		t.Fatalf("after resume: %q, %v", out, err)
	}
}

// TestInvokeSharesComposedChain checks the chain is composed once at
// construction: the same middleware state serves CallRaw and Invoke.
func TestInvokeSharesComposedChain(t *testing.T) {
	n := NewMem()
	s := startEchoAt(t, n, "echo:1")
	defer s.Close()

	var seen atomic.Int64
	c := NewClient(n, "echo", "echo:1", WithMiddleware(func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			seen.Add(1)
			return next(ctx, call)
		}
	}))
	defer c.Close()

	if _, err := c.CallRaw(context.Background(), "Echo", mustMarshal(t, echoReq{Text: "a", N: 1})); err != nil {
		t.Fatal(err)
	}
	call := transport.NewCall("echo", "Echo", mustMarshal(t, echoReq{Text: "b", N: 2}))
	if err := c.Invoke(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	if len(call.Reply) == 0 {
		t.Fatal("Invoke left no reply")
	}
	if seen.Load() != 2 {
		t.Fatalf("middleware ran %d times, want 2", seen.Load())
	}
}
