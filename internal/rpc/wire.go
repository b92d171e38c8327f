package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// maxRetainedBuffer bounds the scratch buffers a connection keeps across
// frames (encode buffer, read envelope) so one oversized frame does not pin
// megabytes on an otherwise idle connection.
const maxRetainedBuffer = 64 << 10

// errEncode marks a failure to serialize the frame's typed body — a request's
// or a reply's. The connection itself is untouched — nothing of the frame was
// written — so callers must report it to the application instead of failing
// the connection or redialing.
var errEncode = errors.New("rpc: encode body")

// connWriter serializes frame writes onto one connection. A connection
// carries one conversation, so the lock is uncontended on every call; what
// it orders is the one stream's Send, its Recv's credit grants and a cancel,
// whose frames must never interleave. Frames are encoded in place: appended
// into a connection-owned buffer under the lock — a typed body is marshaled
// straight into it through the codec fast path, so no per-call encode buffer
// ever exists — and written out at once, one Write per frame.
type connWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error  // sticky: first write failure; the conn is dead
	buf []byte // encode scratch, empty between frames
}

func newConnWriter(w io.Writer) *connWriter {
	return &connWriter{w: w}
}

// write puts the length-prefixed frame on the connection. An errEncode
// failure writes nothing and leaves the connection usable; any other error
// is sticky.
func (cw *connWriter) write(f *frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return cw.err
	}
	if err := cw.encodeLocked(f); err != nil {
		return err
	}
	_, cw.err = cw.w.Write(cw.buf)
	cw.buf = cw.buf[:0]
	if cap(cw.buf) > maxRetainedBuffer {
		cw.buf = nil
	}
	return cw.err
}

// encodeLocked encodes f into the (empty) buffer. The outer length prefix
// (and, for typed bodies, the payload length prefix) is reserved as a
// fixed-width padded uvarint and patched once the final size is known, so the
// body is marshaled exactly once, directly into the buffer. On error the
// buffer is left empty.
func (cw *connWriter) encodeLocked(f *frame) error {
	buf := append(cw.buf, 0, 0, 0, 0) // outer length, patched below
	start := len(buf)
	buf = append(buf, f.kind)
	buf = binary.AppendUvarint(buf, f.seq)
	if hasMethod(f.kind) {
		buf = appendString(buf, f.method)
	}
	if hasCode(f.kind) {
		buf = binary.AppendVarint(buf, f.code)
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.headers)))
	// Header maps are tiny (trace context, deadline); ordering on the wire
	// does not matter for correctness so we skip sorting here.
	for k, v := range f.headers {
		buf = appendString(buf, k)
		buf = appendString(buf, v)
	}
	if f.body != nil {
		buf = append(buf, 0, 0, 0, 0) // payload length, patched below
		pstart := len(buf)
		out, err := codec.AppendMarshal(buf, f.body)
		if err != nil {
			cw.buf = buf[:0]
			return fmt.Errorf("%w: %v", errEncode, err)
		}
		buf = out
		putPadded(buf[pstart-4:], uint64(len(buf)-pstart))
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(f.payload)))
		buf = append(buf, f.payload...)
	}
	size := len(buf) - start
	if size > maxFrameSize {
		cw.buf = buf[:0]
		return fmt.Errorf("%w: frame size %d exceeds limit", errEncode, size)
	}
	putPadded(buf[start-4:], uint64(size))
	cw.buf = buf
	return nil
}

// putPadded writes x into dst[:4] as a fixed-width uvarint: the low three
// byte groups carry continuation bits even when zero, which standard uvarint
// readers accept. Fixing the width lets the writer reserve the prefix before
// the length is known. Valid for x < 1<<28; maxFrameSize is far below that.
func putPadded(dst []byte, x uint64) {
	dst[0] = byte(x) | 0x80
	dst[1] = byte(x>>7) | 0x80
	dst[2] = byte(x>>14) | 0x80
	dst[3] = byte(x >> 21)
}

// frameReader reads length-prefixed frames from a connection into the one
// frame it owns. A frame that sits whole in the read buffer is parsed where
// it lies; one that does not (larger than the buffer, or split across reads)
// is read into an envelope the reader keeps across frames. Method names are
// interned against the server's handler table when one is attached. So a
// steady stream of frames allocates nothing but what outlives the read.
type frameReader struct {
	r   *bufio.Reader
	buf []byte // envelope for a frame the read buffer does not hold whole
	f   frame  // the frame read returns, overwritten by the next read
	// methods, when set (server side), holds a map[string]string whose keys
	// and values are the registered method names; looking an incoming method
	// up through it makes the name a shared string instead of a per-frame
	// copy.
	methods *atomic.Value
}

// readBufSize is a connection's read buffer. A client holds a connection per
// concurrent call, so its price is paid per caller at peak, at both ends:
// at 32 KiB the ledger's social_mixed (209 connections) grew 58 to 69 MiB of
// peak RSS, at 16 KiB it does not move; TestIdleConnFootprint holds the line.
// A frame larger than this still arrives whole, through the envelope.
const readBufSize = 16 << 10

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize)}
}

// read returns the next frame: the reader's own, valid until the next read.
// Request, reply, error and stream-end payloads are views of the read buffer
// and die with the frame. The kinds that outlive the read carry their own
// copy: a one-way payload is pooled (whoever dispatches it releases it with
// transport.ReleaseBuf), stream-open and stream-item payloads are plain
// allocations, since a handler or an inbox keeps them with no release point.
func (fr *frameReader) read() (*frame, error) {
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	if err := fr.parseInto(&fr.f, body); err != nil {
		return nil, err
	}
	return &fr.f, nil
}

// next returns the body of the next frame, less its length prefix. When the
// prefix and the body are both buffered the body is the read buffer's own
// bytes; otherwise the prefix is read byte by byte — any standard uvarint
// is accepted — and the body copied into the envelope.
func (fr *frameReader) next() ([]byte, error) {
	if fr.r.Buffered() == 0 {
		if _, err := fr.r.Peek(1); err != nil {
			return nil, err
		}
	}
	buffered, _ := fr.r.Peek(fr.r.Buffered())
	if size, n := binary.Uvarint(buffered); n > 0 && size <= uint64(len(buffered)-n) {
		fr.r.Discard(n + int(size)) //nolint:errcheck // the bytes are buffered
		return buffered[n : n+int(size)], nil
	}
	size, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return nil, err
	}
	if size > maxFrameSize {
		return nil, fmt.Errorf("rpc: frame size %d exceeds limit", size)
	}
	body := fr.buf
	if uint64(cap(body)) < size {
		body = make([]byte, size)
		if size <= maxRetainedBuffer { // a larger envelope serves its one frame
			fr.buf = body
		}
	}
	body = body[:size]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// parseInto decodes a frame body (excluding the outer length prefix) into f,
// which it overwrites whole; the payload follows the ownership rules
// documented on read.
func (fr *frameReader) parseInto(f *frame, body []byte) error {
	*f = frame{}
	if len(body) < 1 {
		return fmt.Errorf("rpc: empty frame")
	}
	f.kind = body[0]
	rest := body[1:]
	var err error
	if f.seq, rest, err = readUvarint64(rest); err != nil {
		return err
	}
	if hasMethod(f.kind) {
		var mn uint64
		if mn, rest, err = readUvarint64(rest); err != nil {
			return err
		}
		if mn > uint64(len(rest)) {
			return fmt.Errorf("rpc: string length %d exceeds frame", mn)
		}
		mb := rest[:mn]
		rest = rest[mn:]
		if fr.methods != nil {
			if m, _ := fr.methods.Load().(map[string]string); m != nil {
				// Map lookup keyed by string(mb) does not allocate; a hit
				// yields the handler table's own interned name.
				f.method = m[string(mb)]
			}
		}
		if f.method == "" && mn > 0 {
			f.method = string(mb)
		}
	}
	if hasCode(f.kind) {
		if f.code, rest, err = readVarint(rest); err != nil {
			return err
		}
	}
	var nh uint64
	if nh, rest, err = readUvarint64(rest); err != nil {
		return err
	}
	if nh > 1024 {
		return fmt.Errorf("rpc: too many headers: %d", nh)
	}
	if nh > 0 {
		f.headers = make(map[string]string, nh)
		for i := uint64(0); i < nh; i++ {
			var k, v string
			if k, rest, err = readString(rest); err != nil {
				return err
			}
			if v, rest, err = readString(rest); err != nil {
				return err
			}
			f.headers[k] = v
		}
	}
	var np uint64
	if np, rest, err = readUvarint64(rest); err != nil {
		return err
	}
	if np > uint64(len(rest)) {
		return fmt.Errorf("rpc: payload length %d exceeds frame", np)
	}
	if np == 0 {
		return nil
	}
	switch f.kind {
	case kindOneWay:
		f.payload = append(transport.AcquireBuf(int(np)), rest[:np]...)
	case kindStreamOpen, kindStreamItem:
		f.payload = bytes.Clone(rest[:np])
	default:
		f.payload = rest[:np:np]
	}
	return nil
}
