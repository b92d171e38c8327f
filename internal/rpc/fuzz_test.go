package rpc

import (
	"bytes"
	"maps"
	"testing"

	"dsb/internal/transport"
)

// FuzzFrameReader feeds a connection's reader whatever a peer could write.
// Since a call reads its own reply, these bytes are parsed on the calling
// goroutine of every hop, so the reader must hold three lines against any
// input: it returns an error instead of panicking; it never sizes an
// allocation from a length it has not checked against maxFrameSize (outer
// length), the header cap, or the bytes actually present (method, header
// strings, payload); and what it does accept it understood — the frame
// re-encodes to bytes that parse back to the same frame. The second half is
// the caller's view: readReply hands back only the reply to its own
// sequence number, whatever else the peer interleaves.
//
// Seeds for each hostile shape are committed under testdata/fuzz; `make
// check` runs the target for ten seconds.
func FuzzFrameReader(f *testing.F) {
	f.Add(bytes.Join([][]byte{
		encodeWire(f, &frame{kind: kindRequest, seq: 1, method: "ReadTimeline",
			headers: map[string]string{"dsb-deadline": "1722470400000000000"}, payload: []byte("abc")}),
		encodeWire(f, &frame{kind: kindStreamItem, seq: 2, payload: []byte("item")}),
		encodeWire(f, &frame{kind: kindStreamCredit, seq: 2, code: 16}),
		encodeWire(f, &frame{kind: kindError, seq: 3, code: int64(CodeNotFound), payload: []byte("no such method")}),
	}, nil), uint64(3))

	f.Fuzz(func(t *testing.T, wire []byte, seq uint64) {
		fr := newFrameReader(bytes.NewReader(wire))
		for {
			got, err := fr.read()
			if cap(fr.buf) > maxRetainedBuffer {
				t.Fatalf("reader kept a %d-byte envelope, cap is %d", cap(fr.buf), maxRetainedBuffer)
			}
			if err != nil {
				break
			}
			if len(got.payload) > len(wire) || len(got.method) > len(wire) || len(got.headers) > 1024 {
				t.Fatalf("frame larger than its input: %d payload bytes, %d method bytes, %d headers from %d bytes",
					len(got.payload), len(got.method), len(got.headers), len(wire))
			}
			again, err := parseBody(frameBody(t, got))
			if err != nil {
				t.Fatalf("accepted frame %+v does not re-parse: %v", got, err)
			}
			if again.kind != got.kind || again.seq != got.seq || again.method != got.method || again.code != got.code ||
				!maps.Equal(again.headers, got.headers) || !bytes.Equal(again.payload, got.payload) {
				t.Fatalf("frame changed in a round trip:\n got   %+v\n again %+v", got, again)
			}
			transport.ReleaseBuf(got.payload)
			putFrame(got)
		}

		cn := &conn{fr: newFrameReader(bytes.NewReader(wire)), seq: seq}
		if reply, err := cn.readReply(); err == nil {
			if reply.seq != seq || (reply.kind != kindReply && reply.kind != kindError) {
				t.Fatalf("call %d was handed frame kind %d seq %d", seq, reply.kind, reply.seq)
			}
		}
	})
}
