package rpc

// One conversation per connection, for streams: a stream checks its
// connection out of the idle stack a call uses, has it to itself, and closes
// it when it ends. Each test here fails on a client that multiplexes streams
// over shared connections. All of them run under -race in `make check`.

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsb/internal/transport"
)

// serverConns counts the connections s is serving.
func serverConns(s *Server) int {
	s.acc.mu.Lock()
	defer s.acc.mu.Unlock()
	return len(s.acc.conns)
}

// openConns counts the client's connections, parked or checked out.
func (c *Client) openConns() int {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	return len(c.stack.conns)
}

// mustBeClosed fails the test unless this end of conn has been closed. (It
// asks by writing, so it is for connections nothing should be using.)
func mustBeClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	if _, err := conn.Write([]byte{0}); err == nil {
		t.Fatalf("%s is still open", what)
	}
}

func mustStream(t *testing.T, c *Client, method string) *transport.Stream {
	t.Helper()
	st, err := c.Stream(context.Background(), method, echoReq{})
	if err != nil {
		t.Fatalf("Stream(%s): %v", method, err)
	}
	return st
}

func mustRecv(t *testing.T, st *transport.Stream) streamItem {
	t.Helper()
	var item streamItem
	if err := st.Recv(&item); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return item
}

// drainToEnd reads st until it fails and returns that error.
func drainToEnd(t *testing.T, st *transport.Stream) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var item streamItem
		if err := st.Recv(&item); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never ended")
		}
	}
}

// TestStreamsOneConnEach: K open streams are K dials and K server
// connections, and ending one stream closes its connection and no other.
func TestStreamsOneConnEach(t *testing.T) {
	const k = 6
	mem := NewMem()
	n := &connGrabber{Network: mem}
	addr, s := startStreamServer(t, mem)
	c := NewClient(n, "stream", addr)
	defer c.Close()

	streams := make([]*transport.Stream, k)
	for i := range streams {
		streams[i] = mustStream(t, c, "Firehose")
		mustRecv(t, streams[i])
	}
	conns := n.dialed(t, k)
	if got := serverConns(s); got != k {
		t.Fatalf("server holds %d connections for %d streams, want %d", got, k, k)
	}
	if open, idle := c.openConns(), c.idleConns(); open != k || idle != 0 {
		t.Fatalf("client holds %d connections, %d parked; want %d, all with their streams", open, idle, k)
	}

	streams[2].Cancel()
	mustBeClosed(t, conns[2], "the ended stream's connection")
	waitFor(t, func() bool { return serverConns(s) == k-1 })
	if open := c.openConns(); open != k-1 {
		t.Fatalf("client holds %d connections after one of %d streams ended, want %d", open, k, k-1)
	}
	for i, st := range streams {
		if i == 2 {
			continue
		}
		for j := 0; j < 2*streamWindow; j++ { // past what was buffered: the connection is live
			mustRecv(t, st)
		}
	}
}

// TestStreamConnNeverParked: a stream takes the connection a call parked —
// same stack, no dial of its own — and when it ends, in the middle of a
// window with items and credit still crossing, the connection is closed
// rather than parked: the next call dials afresh and reads its own reply.
func TestStreamConnNeverParked(t *testing.T) {
	mem := NewMem()
	n := &connGrabber{Network: mem}
	s := NewServer("mixed")
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) { return payload, nil })
	s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		for i := int64(0); ; i++ {
			if err := st.SendMsg(streamItem{Seq: i}); err != nil {
				return err
			}
		}
	})
	addr, err := s.Start(mem, "mixed:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(n, "mixed", addr)
	defer c.Close()

	if _, err := c.CallRaw(context.Background(), "Echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	st := mustStream(t, c, "Firehose")
	for i := 0; i < streamWindow; i++ { // far enough that credit has gone back
		mustRecv(t, st)
	}
	conn := n.dialed(t, 1)[0] // the stream rode the call's connection
	if idle := c.idleConns(); idle != 0 {
		t.Fatalf("%d connections parked while the only one carries a stream", idle)
	}
	st.Cancel()
	mustBeClosed(t, conn, "the ended stream's connection")
	if open, idle := c.openConns(), c.idleConns(); open != 0 || idle != 0 {
		t.Fatalf("after the stream ended the client holds %d connections, %d parked; want none", open, idle)
	}
	for i := 0; i < 3; i++ {
		msg := fmt.Sprintf("after-%d", i)
		out, err := c.CallRaw(context.Background(), "Echo", []byte(msg))
		if err != nil || string(out) != msg {
			t.Fatalf("call after the stream: %q, %v", out, err)
		}
	}
	n.dialed(t, 2)
}

// TestStreamConnDeathFailsThatStreamOnly kills the connection under one of
// three streams: that one fails with the coded retryable error, its siblings
// keep delivering.
func TestStreamConnDeathFailsThatStreamOnly(t *testing.T) {
	mem := NewMem()
	n := &connGrabber{Network: mem}
	addr, _ := startStreamServer(t, mem)
	c := NewClient(n, "stream", addr)
	defer c.Close()

	var streams [3]*transport.Stream
	for i := range streams {
		streams[i] = mustStream(t, c, "Firehose")
		mustRecv(t, streams[i])
	}
	n.dialed(t, 3)[1].Close()

	if err := drainToEnd(t, streams[1]); !IsCode(err, CodeUnavailable) || !transport.Retryable(err) {
		t.Fatalf("stream on the killed connection: %v, want retryable CodeUnavailable", err)
	}
	for _, i := range []int{0, 2} {
		for j := 0; j < 2*streamWindow; j++ { // past what was buffered before the kill
			mustRecv(t, streams[i])
		}
	}
}

// TestCloseWithOpenStreams: a stream's connection is in the client's
// registry like a call's, so Client.Close ends every open stream (the
// server's end of each sees the end and both its goroutines exit), and
// Server.Close returns with streams parked mid-window.
func TestCloseWithOpenStreams(t *testing.T) {
	const k = 8
	n := NewMem()
	addr, s := startStreamServer(t, n)
	open := func(c *Client) []*transport.Stream {
		streams := make([]*transport.Stream, k)
		for i := range streams {
			streams[i] = mustStream(t, c, "Firehose")
			mustRecv(t, streams[i]) // live; nobody reads on, so the sender parks at the window
		}
		return streams
	}

	c := NewClient(n, "stream", addr)
	streams := open(c)
	if got := c.openConns(); got != k {
		t.Fatalf("Close's list holds %d connections for %d open streams", got, k)
	}
	c.Close()
	for i, st := range streams {
		if err := drainToEnd(t, st); !IsCode(err, CodeUnavailable) {
			t.Fatalf("stream %d after Client.Close: %v, want CodeUnavailable", i, err)
		}
	}
	waitFor(t, func() bool { return serverConns(s) == 0 })
	if _, err := c.Stream(context.Background(), "Firehose", echoReq{}); err == nil {
		t.Fatal("Stream on a closed client succeeded")
	}

	c2 := NewClient(n, "stream", addr)
	defer c2.Close()
	streams = open(c2)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on streams parked mid-window")
	}
	for i, st := range streams {
		if err := drainToEnd(t, st); !IsCode(err, CodeUnavailable) {
			t.Fatalf("stream %d after Server.Close: %v, want CodeUnavailable", i, err)
		}
	}
	waitFor(t, func() bool { return c2.openConns() == 0 })
}

// TestOneGoroutinePerClientStream: an open stream costs its client one
// goroutine, the reader of its connection — the tie to ctx is a callback, not
// a watcher. The peer is a listener that accepts and never reads, so every
// goroutine counted is the client's.
func TestOneGoroutinePerClientStream(t *testing.T) {
	const k = 64
	n := NewMem()
	l, err := n.Listen("sink:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
		}
	}()
	c := NewClient(n, "sink", "sink:0")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	before := runtime.NumGoroutine()
	streams := make([]*transport.Stream, k)
	for i := range streams {
		if streams[i], err = c.Stream(ctx, "Anything", echoReq{}); err != nil {
			t.Fatal(err)
		}
	}
	// Not !=: a goroutine of an earlier test may still be on its way out.
	if got := runtime.NumGoroutine() - before; got > k {
		t.Fatalf("%d open streams run %d client goroutines, want one each", k, got)
	}
	c.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// intrudeOnStream opens a stream on a hand-written client connection, checks
// that frames the server must drop — another stream's credit and abort — do
// not disturb it, then writes intruder and requires the server to close the
// connection, tear the stream down under its handler (ctx cancelled, a Send
// parked on the window woken with CodeUnavailable) and run no second
// handler.
func intrudeOnStream(t *testing.T, intruder *frame) {
	t.Helper()
	n := NewMem()
	s := NewServer("stream")
	s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) { return payload, nil })
	ended := make(chan error, 2)
	s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		for i := 0; ; i++ {
			if err := st.Send([]byte(fmt.Sprint(i))); err != nil {
				<-ctx.Done()
				ended <- err
				return err
			}
		}
	})
	addr, err := s.Start(n, "stream:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn)
	write := func(f *frame) {
		t.Helper()
		if _, err := conn.Write(encodeWire(t, f)); err != nil {
			t.Fatal(err)
		}
	}
	readItems := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if f, err := fr.read(); err != nil || f.kind != kindStreamItem || f.seq != 1 || string(f.payload) != fmt.Sprint(i) {
				t.Fatalf("item %d of the stream: %+v, %v", i, f, err)
			}
		}
	}

	write(&frame{kind: kindStreamOpen, seq: 1, method: "Firehose"})
	readItems(0, streamWindow) // the handler parks on the exhausted window
	write(&frame{kind: kindStreamCredit, seq: 9, code: creditBatch})
	write(&frame{kind: kindStreamEnd, seq: 9, code: int64(CodeInternal)})
	write(&frame{kind: kindStreamCredit, seq: 1, code: creditBatch})
	readItems(streamWindow, streamWindow+creditBatch) // only the stream's own credit counted

	write(intruder)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a memConn takes any deadline
	if f, err := fr.read(); err != io.EOF {
		t.Fatalf("kind-%d frame on a stream's connection was answered with %+v, %v; want the connection closed", intruder.kind, f, err)
	}
	select {
	case err := <-ended:
		if !IsCode(err, CodeUnavailable) {
			t.Fatalf("the stream's handler ended with %v, want CodeUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stream's handler outlived its connection")
	}
	s.Close()
	if len(ended) != 0 {
		t.Fatal("a second stream handler ran on the connection")
	}
}

// TestSecondConversationClosesStreamConn: a connection that has opened a
// stream is that stream's. A hand-written peer that puts a call, a one-way or
// a second open on it gets the connection closed — not a reply, and not a
// second stream.
func TestSecondConversationClosesStreamConn(t *testing.T) {
	for _, intruder := range []*frame{
		{kind: kindRequest, seq: 2, method: "Echo", payload: []byte("hi")},
		{kind: kindOneWay, seq: 2, method: "Echo"},
		{kind: kindStreamOpen, seq: 2, method: "Firehose"},
		{kind: kindStreamOpen, seq: 1, method: "Firehose"},
	} {
		intrudeOnStream(t, intruder)
	}
}

// TestClientItemOrCleanEndClosesStreamConn: items run from server to client
// only, and only the handler ends a stream cleanly, so an item or a clean End
// from the client — the stream's sequence number or another — is a second
// conversation: the server closes the connection and cancels the handler.
func TestClientItemOrCleanEndClosesStreamConn(t *testing.T) {
	for _, intruder := range []*frame{
		{kind: kindStreamItem, seq: 1, payload: []byte("a")},
		{kind: kindStreamItem, seq: 9, payload: []byte("a")},
		{kind: kindStreamEnd, seq: 1},
		{kind: kindStreamEnd, seq: 9},
	} {
		intrudeOnStream(t, intruder)
	}
}

// TestStreamSendRecvCancelConcurrent puts every writer a stream has on its
// connection at once — the handler's Send, the credit grants the client's
// Recv writes, and the client's Cancel from a third goroutine — and checks
// that the client only ever sees whole frames, every item the item that was
// sent, and the server only the client's: the abort ends its handler, never
// a frame it cannot read.
func TestStreamSendRecvCancelConcurrent(t *testing.T) {
	n := NewMem()
	s := NewServer("stream")
	check := func(it streamItem) bool { return it.Msg == fmt.Sprint("item-", it.Seq) }
	ended := make(chan error, 1)
	s.HandleStream("Firehose", func(ctx *Ctx, payload []byte, st *ServerStream) error {
		for i := int64(0); ; i++ {
			if err := st.SendMsg(streamItem{Seq: i, Msg: fmt.Sprint("item-", i)}); err != nil {
				ended <- err
				return nil
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

	for round := 0; round < 20; round++ {
		st := mustStream(t, c, "Firehose")
		cancelAt := int64(streamWindow + 7*round) // somewhere in the second window or later
		var wg sync.WaitGroup
		for want := int64(0); ; want++ { // Recv (granting credit) and, part-way, Cancel
			var it streamItem
			if err := st.Recv(&it); err != nil {
				if !IsCode(err, CodeDeadline) {
					t.Errorf("round %d: stream ended with %v, want the cancel's CodeDeadline", round, err)
				}
				break
			}
			if it.Seq != want || !check(it) {
				t.Errorf("round %d: item %d arrived as %+v", round, want, it)
			}
			if want == cancelAt {
				wg.Add(1)
				go func() { defer wg.Done(); st.Cancel() }()
			}
		}
		wg.Wait()
		select {
		case err := <-ended:
			if !IsCode(err, CodeDeadline) && !IsCode(err, CodeUnavailable) {
				t.Fatalf("round %d: the handler's Send failed with %v, want the abort or the closed connection", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the handler outlived the cancelled stream", round)
		}
	}
}
