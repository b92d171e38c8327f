package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"time"

	"dsb/internal/transport"
)

// FuzzFrameReader feeds a connection's reader whatever a peer could write.
// Since a call reads its own reply, these bytes are parsed on the calling
// goroutine of every hop, so the reader must hold four lines against any
// input: it returns an error instead of panicking; it never sizes an
// allocation from a length it has not checked against maxFrameSize (outer
// length) or the bytes actually present (method, call header, payload), and
// takes no call header flag it does not know; what it does accept it
// understood — the frame
// re-encodes to bytes that parse back to the same frame; and nothing it
// borrows is held between frames — a frame that fits the reader's own buffer
// borrows nothing, a larger one only until the next read, and a failed read
// holds nothing at all. The same bytes go through three readers, which cut
// them differently: a bytes.Reader fills the read buffer whole, an
// iotest.HalfReader half of it at a time, and an iotest.OneByteReader a byte
// at a time, so a frame larger than the buffer arrives split across reads,
// at every point; all three must yield the same frames, or fail with the
// same error. The last part is the caller's view: readReply hands back only
// the reply to its own sequence number, whatever else the peer interleaves.
//
// Seeds for each hostile shape are committed under testdata/fuzz; `make
// check` runs the target for ten seconds.
func FuzzFrameReader(f *testing.F) {
	f.Add(bytes.Join([][]byte{
		encodeWire(f, &frame{kind: kindRequest, seq: 1, method: "ReadTimeline",
			deadline: 1722470400000000000, payload: []byte("abc")}),
		encodeWire(f, &frame{kind: kindStreamItem, seq: 2, payload: []byte("item")}),
		encodeWire(f, &frame{kind: kindStreamCredit, seq: 2, code: 16}),
		encodeWire(f, &frame{kind: kindError, seq: 3, code: int64(CodeNotFound), payload: []byte("no such method")}),
	}, nil), uint64(3))
	// A one-byte length prefix, as any uvarint writer would put it.
	body := frameBody(f, &frame{kind: kindReply, seq: 4, payload: []byte("short")})
	f.Add(append(binary.AppendUvarint(nil, uint64(len(body))), body...), uint64(4))
	// A frame larger than the read buffer, then a one-way behind it.
	f.Add(append(encodeWire(f, &frame{kind: kindReply, seq: 5, payload: bytes.Repeat([]byte("z"), readBufSize+100)}),
		encodeWire(f, &frame{kind: kindOneWay, seq: 6, method: "Ack", payload: []byte("k")})...), uint64(5))
	// Two frames that arrive in one read.
	f.Add(append(encodeWire(f, &frame{kind: kindReply, seq: 6, payload: []byte("first")}),
		encodeWire(f, &frame{kind: kindReply, seq: 7, payload: []byte("second")})...), uint64(7))
	// A frame just larger than the read buffer, whose prefix and first bytes
	// share a read with the end of a small frame before it.
	f.Add(append(encodeWire(f, &frame{kind: kindReply, seq: 8, payload: bytes.Repeat([]byte("a"), 1000)}),
		encodeWire(f, &frame{kind: kindReply, seq: 9, payload: bytes.Repeat([]byte("b"), readBufSize)})...), uint64(9))
	// A small frame pipelined behind a large one, and a large one behind it.
	f.Add(bytes.Join([][]byte{
		encodeWire(f, &frame{kind: kindReply, seq: 10, payload: bytes.Repeat([]byte("c"), 3*readBufSize)}),
		encodeWire(f, &frame{kind: kindReply, seq: 11, payload: []byte("small")}),
		encodeWire(f, &frame{kind: kindOneWay, seq: 12, method: "Big", payload: bytes.Repeat([]byte("d"), 2*readBufSize)}),
	}, nil), uint64(11))
	// Each combination of call header flags, on each request-shaped kind.
	trace := transport.SpanContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}
	for _, hdr := range []frame{{}, {deadline: 1722470400000000000}, {trace: trace}, {deadline: -1, trace: trace}} {
		var wire []byte
		for i, kind := range []byte{kindRequest, kindOneWay, kindStreamOpen} {
			hdr.kind, hdr.seq, hdr.method, hdr.payload = kind, uint64(13+i), "Call", []byte("p")
			wire = append(wire, encodeWire(f, &hdr)...)
		}
		f.Add(wire, uint64(13))
	}
	// A trace pair with a zero trace ID names no trace: it reads as untraced.
	zeroTrace := append([]byte{kindRequest, 14, 1, 'M', flagTrace}, make([]byte, 8)...)
	zeroTrace = append(zeroTrace, 5, 0, 0, 0, 0, 0, 0, 0, 0) // span ID 5, no payload
	f.Add(append([]byte{byte(len(zeroTrace))}, zeroTrace...), uint64(14))
	// An outer length of exactly maxFrameSize, truncated, is the committed
	// max-outer-length-truncated; unknown flag bits, and a deadline or trace
	// pair cut short, are committed too.

	f.Fuzz(func(t *testing.T, wire []byte, seq uint64) {
		readers := []*frameReader{
			newFrameReader(bytes.NewReader(wire)),
			newFrameReader(iotest.HalfReader(bytes.NewReader(wire))),
			newFrameReader(iotest.OneByteReader(bytes.NewReader(wire))),
		}
		frames := make([]*frame, len(readers))
		for {
			var err error
			for i, fr := range readers {
				f, ferr := fr.read()
				if fr.borrowed != nil && (ferr != nil || len(fr.borrowed) <= readBufSize) {
					t.Fatalf("reader %d holds %d borrowed bytes after a read that returned %v", i, len(fr.borrowed), ferr)
				}
				if i == 0 {
					err = ferr
				} else if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
					t.Fatalf("reader 0: %v; reader %d: %v", err, i, ferr)
				}
				frames[i] = f
			}
			if err != nil {
				break
			}
			got := frames[0]
			for i, want := range frames[1:] {
				if !sameFrame(got, want) {
					t.Fatalf("the readers disagree:\n reader 0 %+v\n reader %d %+v", got, i+1, want)
				}
			}
			if len(got.payload) > len(wire) || len(got.method) > len(wire) {
				t.Fatalf("frame larger than its input: %d payload bytes, %d method bytes from %d bytes",
					len(got.payload), len(got.method), len(wire))
			}
			if !hasMethod(got.kind) && (got.deadline != 0 || got.trace != (transport.SpanContext{})) ||
				got.trace.SpanID != 0 && !got.trace.Valid() {
				t.Fatalf("frame %+v: a call header on a kind without one, or a span with no trace", got)
			}
			again, err := parseBody(frameBody(t, got))
			if err != nil {
				t.Fatalf("accepted frame %+v does not re-parse: %v", got, err)
			}
			if !sameFrame(again, got) {
				t.Fatalf("frame changed in a round trip:\n got   %+v\n again %+v", got, again)
			}
			if got.kind == kindOneWay { // the one payload the reader hands over pooled
				for _, f := range frames {
					transport.ReleaseBuf(f.payload)
				}
			}
		}

		w := &framing{fr: newFrameReader(bytes.NewReader(wire)), seq: seq}
		if reply, err := w.readReply(); err == nil {
			if reply.seq != seq || (reply.kind != kindReply && reply.kind != kindError) {
				t.Fatalf("call %d was handed frame kind %d seq %d", seq, reply.kind, reply.seq)
			}
		}
	})
}

// sameFrame reports whether two parsed frames say the same thing.
func sameFrame(a, b *frame) bool {
	return a.kind == b.kind && a.seq == b.seq && a.method == b.method && a.code == b.code &&
		a.deadline == b.deadline && a.trace == b.trace && bytes.Equal(a.payload, b.payload)
}

// A FuzzStreamConn script is a run of three-byte steps — frame kind, sequence
// number, code — each byte an index (modulo) into one of these tables. The
// stream under test is opened with sequence number 1, which is why the table
// leans that way; the rest are the hostile ones.
var (
	scriptKinds = []byte{kindStreamOpen, kindStreamItem, kindStreamEnd, kindStreamCredit, kindRequest}
	scriptSeqs  = []uint64{1, 1, 1, 0, 2, 1 << 63, math.MaxUint64}
	scriptCodes = []int64{0, 1, creditBatch, streamWindow, 2*streamWindow + 1, 1 << 31, math.MaxInt64, -1, math.MinInt64, int64(CodeInternal)}
)

// scriptWire renders a script as the bytes a peer would write: toServer is
// all of it, as a client sends it; toClient is what a hostile server sends
// back on a stream the client opened — the script after its leading open
// (the client's own frame), up to the next frame that carries a method,
// which ends a client stream's reading. ended reports whether toClient sends
// the stream with sequence number 1 an End; intrudes whether, read by a
// server, the script breaks its stream connection's rule: after the first
// open, a request-shaped frame, an item or a clean End, whatever its
// sequence number.
func scriptWire(t testing.TB, script []byte) (toServer, toClient []byte, ended, intrudes bool) {
	opened, stopped := false, false
	for first := true; len(script) >= 3; script, first = script[3:], false {
		f := &frame{
			kind: scriptKinds[int(script[0])%len(scriptKinds)],
			seq:  scriptSeqs[int(script[1])%len(scriptSeqs)],
			code: scriptCodes[int(script[2])%len(scriptCodes)],
		}
		switch f.kind {
		case kindStreamOpen:
			f.method = "Hold"
			intrudes = intrudes || opened
			opened = true
		case kindRequest:
			f.method = "Echo"
			intrudes = intrudes || opened
		case kindStreamItem:
			f.payload = []byte("item")
			intrudes = intrudes || opened
		case kindStreamEnd:
			intrudes = intrudes || (opened && f.code == 0)
		}
		wire := encodeWire(t, f)
		toServer = append(toServer, wire...)
		if first && f.kind == kindStreamOpen {
			continue
		}
		if stopped = stopped || hasMethod(f.kind); !stopped {
			toClient = append(toClient, wire...)
			ended = ended || (f.kind == kindStreamEnd && f.seq == 1)
		}
	}
	return toServer, toClient, ended, intrudes
}

// FuzzStreamConn drives the one state machine a connection has — no stream
// yet, or one stream and nothing else — with arbitrary sequences of open,
// item, end, credit and request frames bearing hostile sequence numbers and
// credit grants, against a server's connection and against a client stream's
// reader. Neither may panic; a client stream's inbox never passes
// 2*streamWindow items and a server's never holds one; a send window stays
// within [0, 2*streamWindow] whatever the peer grants; a connection runs at
// most one stream handler; a server closes a stream's connection by itself
// when the client breaks the one-way rule (scriptWire's intrudes); and the
// connection's reader and the stream's handler are both gone once the
// connection is.
//
// Seeds for each hostile shape are committed under testdata/fuzz; `make
// check` runs the target for ten seconds.
func FuzzStreamConn(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 2, 2, 0, 0})

	within := func(t *testing.T, what string, done <-chan struct{}) {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s outlived the connection", what)
		}
	}
	checkWindow := func(t *testing.T, end string, sc *streamCore, maxInbox int) {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if len(sc.inbox) > maxInbox {
			t.Fatalf("%s stream buffered %d items, cap is %d", end, len(sc.inbox), maxInbox)
		}
		if sc.credit < 0 || sc.credit > 2*streamWindow {
			t.Fatalf("%s stream's send window is %d, outside [0, %d]", end, sc.credit, 2*streamWindow)
		}
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*1024 {
			script = script[:3*1024]
		}

		// A server's connection.
		s := NewServer("fuzz")
		s.Handle("Echo", func(ctx *Ctx, payload []byte) ([]byte, error) { return payload, nil })
		held := make(chan *streamCore, 2)
		s.HandleStream("Hold", func(ctx *Ctx, payload []byte, st *ServerStream) error {
			held <- st.core
			<-st.Done()
			<-ctx.Done() // teardown cancels the handler's ctx, whatever caused it
			return nil
		})
		wire, toClient, ended, intrudes := scriptWire(t, script)
		peer, conn := newMemConnPair("fuzz")
		served, unwound := make(chan struct{}), make(chan struct{})
		go func() { s.serveConn(conn); close(served) }()
		go io.Copy(io.Discard, peer) //nolint:errcheck // replies to the script's requests
		peer.Write(wire)             //nolint:errcheck // fails where the server hung up on a second conversation
		if intrudes {
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("the server kept a stream's connection open after the client broke its rule")
			}
		}
		peer.Close()
		within(t, "the connection's reader", served)
		go func() { s.wg.Wait(); close(unwound) }()
		within(t, "a stream handler", unwound)
		if len(held) > 1 {
			t.Fatal("one connection ran two stream handlers")
		}
		if len(held) == 1 {
			checkWindow(t, "server", <-held, 0)
		}
		s.Close()

		// A client stream's reader, fed the frames after the open by a
		// hostile server.
		sc := newStreamCore(1, newConnWriter(io.Discard))
		if err := sc.readFrom(newFrameReader(bytes.NewReader(toClient))); err == nil {
			t.Fatal("the reader returned without an error")
		}
		checkWindow(t, "client", sc, 2*streamWindow)
		if sc.torn != ended {
			t.Fatalf("client stream torn down = %v, sent an End = %v", sc.torn, ended)
		}
	})
}
