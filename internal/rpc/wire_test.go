package rpc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"dsb/internal/transport"
)

// encodeWire renders f as its on-the-wire bytes.
func encodeWire(t testing.TB, f *frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := newConnWriter(&buf)
	if err := cw.write(f); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// frameBody is f on the wire less the outer length prefix (always the four
// padded bytes connWriter reserves).
func frameBody(t testing.TB, f *frame) []byte { return encodeWire(t, f)[4:] }

// parseBody decodes a frame body the way a connection's reader does.
func parseBody(body []byte) (*frame, error) {
	f := new(frame)
	err := new(frameReader).parseInto(f, body)
	return f, err
}

// TestFrameAllocGuard pins the frame path's allocation behavior so hot-path
// regressions fail loudly:
//
//   - encode is allocation-free: the scratch buffer lives with the
//     connWriter and is reused across frames (the seed code allocated a
//     fresh encode buffer per call);
//   - decode of a frame that sits whole in the read buffer allocates nothing:
//     the frame is the reader's own and the payload a view of the buffer
//     (the seed code allocated the whole frame body per message, and later
//     versions a pooled frame and a pooled payload copy); a request's
//     deadline and trace pair are fixed fields of it (as a string header
//     map they cost 8 allocations to read), and its method name is interned
//     against the server's handler table.
func TestFrameAllocGuard(t *testing.T) {
	req := &frame{
		kind:     kindRequest,
		seq:      7,
		method:   "ReadTimeline",
		deadline: 1722470400000000000,
		trace:    transport.SpanContext{TraceID: 0x1234abcd5678ef90, SpanID: 0x0fedcba987654321},
		payload:  bytes.Repeat([]byte("x"), 256),
	}
	cw := newConnWriter(bytes.NewBuffer(make([]byte, 0, 1<<20)))
	if err := cw.write(req); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := cw.write(req); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("encode allocs/op = %.1f, want 0 (scratch buffer must be reused)", allocs)
	}

	// A bodyless reply (fire-and-forget ack) decodes with no allocation.
	ackWire := encodeWire(t, &frame{kind: kindReply, seq: 9})
	src := bytes.NewReader(ackWire)
	fr := newFrameReader(src)
	readOne := func() *frame {
		f, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	readOne()
	if allocs := testing.AllocsPerRun(200, func() {
		src.Reset(ackWire)
		readOne()
	}); allocs > 0 {
		t.Errorf("bodyless decode allocs/op = %.1f, want 0 (the frame is the reader's)", allocs)
	}

	// A reply carrying a payload adds nothing: the payload is a view.
	replyWire := encodeWire(t, &frame{kind: kindReply, seq: 9, payload: bytes.Repeat([]byte("y"), 512)})
	src2 := bytes.NewReader(replyWire)
	fr2 := newFrameReader(src2)
	fr2.read() //nolint:errcheck
	if allocs := testing.AllocsPerRun(200, func() {
		src2.Reset(replyWire)
		if f, err := fr2.read(); err != nil || len(f.payload) != 512 {
			t.Fatalf("decode: %v", err)
		}
	}); allocs > 0 {
		t.Errorf("payload decode allocs/op = %.1f, want 0 (the payload is parsed in place)", allocs)
	}

	// A request carrying a deadline and a trace pair adds nothing either.
	reqWire := encodeWire(t, req)
	src3 := bytes.NewReader(reqWire)
	fr3 := newFrameReader(src3)
	fr3.methods = new(atomic.Value)
	fr3.methods.Store(map[string]string{req.method: req.method})
	fr3.read() //nolint:errcheck
	if allocs := testing.AllocsPerRun(200, func() {
		src3.Reset(reqWire)
		f, err := fr3.read()
		if err != nil || f.method != req.method || f.deadline != req.deadline || f.trace != req.trace {
			t.Fatalf("decode: %+v, %v", f, err)
		}
	}); allocs > 0 {
		t.Errorf("request decode allocs/op = %.1f, want 0 (the call header is fixed fields)", allocs)
	}
}

// TestFramesSplitAcrossReads: frames on both sides of the read buffer's size,
// written over an rpc.Mem connection in pieces cut every few bytes — so a
// large frame's prefix, head and payload each arrive split, and the end of
// one frame shares a read with the start of the next — come out whole and in
// order. The reader holds a borrowed buffer only for a frame that did not
// fit its own, and nothing once the connection is done.
func TestFramesSplitAcrossReads(t *testing.T) {
	client, server := memPair(t)
	sizes := []int{0, 1, readBufSize - 16, readBufSize, readBufSize + 1, 3*readBufSize + 5, 40 << 10, 9}
	var wire []byte
	bodies := make([]int, len(sizes))
	for i, n := range sizes {
		w := encodeWire(t, &frame{kind: kindReply, seq: uint64(i), payload: bytes.Repeat([]byte{byte(i)}, n)})
		wire, bodies[i] = append(wire, w...), len(w)-4
	}
	go func() {
		defer client.Close()
		for cut, rest := 1, wire; len(rest) > 0; cut = cut*7%1499 + 1 {
			n := min(cut, len(rest))
			if _, err := client.Write(rest[:n]); err != nil {
				t.Error(err)
				return
			}
			rest = rest[n:]
		}
	}()
	fr := newFrameReader(server)
	for i, n := range sizes {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.seq != uint64(i) || !bytes.Equal(f.payload, bytes.Repeat([]byte{byte(i)}, n)) {
			t.Fatalf("frame %d: seq %d, %d payload bytes, want %d", i, f.seq, len(f.payload), n)
		}
		if big := bodies[i] > readBufSize; (fr.borrowed != nil) != big {
			t.Fatalf("frame %d of %d payload bytes: reader holds a borrowed buffer: %v", i, n, fr.borrowed != nil)
		}
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	if fr.borrowed != nil {
		t.Fatal("the reader holds a borrowed buffer after the connection ended")
	}
}

// TestConcurrentSendersOneConn hammers one client with concurrent callers;
// every reply must match its request (connection and buffer reuse must not
// corrupt or misdeliver frames).
func TestConcurrentSendersOneConn(t *testing.T) {
	n := NewMem()
	srv := NewServer("echo")
	srv.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return payload, nil
	})
	addr, err := srv.Start(n, "echo:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(n, "echo", addr)
	defer c.Close()
	ctx := context.Background()

	const workers, calls = 16, 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("w%d-c%d", w, i)
				out, err := c.CallRaw(ctx, "Echo", []byte(msg))
				if err != nil {
					errs <- fmt.Errorf("call %s: %w", msg, err)
					return
				}
				if string(out) != msg {
					errs <- fmt.Errorf("echo %q returned %q", msg, out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
