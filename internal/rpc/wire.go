package rpc

import (
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

// errEncode marks a failure to serialize the frame's typed body — a request's
// or a reply's. The connection itself is untouched — nothing of the frame was
// written — so callers must report it to the application instead of failing
// the connection or redialing.
var errEncode = errors.New("rpc: encode body")

// readBufSize is what a connection end keeps to read and write with between
// frames: the reader's own buffer, which holds frame headers and the small
// frames a call mostly carries — IDs, keys, short posts — and the most a
// writer keeps of its encode buffer. A frame larger than this is read into,
// or encoded in, a buffer borrowed from transport's pool for that frame
// alone. A client holds a connection per concurrent call, so whatever a
// connection keeps is paid per caller at peak, at both ends. History: at
// 32 KiB of read buffer the ledger's social_mixed (209 connections) grew 58
// to 69 MiB of peak RSS; at 16 KiB, 496 reader ends held 7.9 MiB of a 36 MiB
// heap at the end of its measured section. TestIdleConnFootprint holds the
// line.
const readBufSize = 2 << 10

// connWriter serializes frame writes onto one connection. A connection
// carries one conversation, so the lock is uncontended on every call; what
// it orders is the one stream's Send, its Recv's credit grants and a cancel,
// whose frames must never interleave. Frames are encoded in place — a typed
// body is marshaled straight into the frame through the codec fast path, so
// no per-call encode buffer ever exists — and written out at once, one Write
// per frame. The writer keeps its encode buffer between frames only up to
// readBufSize; after a larger frame, the next is encoded in a buffer
// borrowed from transport's pool at that frame's size, and released once
// written.
type connWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error  // sticky: first write failure; the conn is dead
	buf []byte // encode scratch, empty between frames, cap ≤ readBufSize
	big int    // length of the last frame, when it outgrew readBufSize
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
	buf := cw.buf[:0]
	if cw.big > 0 {
		buf = transport.AcquireBuf(cw.big)
	}
	buf, err := appendFrame(buf, f)
	if err == nil {
		_, cw.err = cw.w.Write(buf)
		err = cw.err
	}
	cw.big = 0
	if len(buf) > readBufSize {
		cw.big = len(buf)
	}
	if cap(buf) <= readBufSize {
		cw.buf = buf[:0]
	} else {
		transport.ReleaseBuf(buf)
	}
	return err
}

// appendFrame encodes f onto the empty buf. The outer length prefix (and,
// for typed bodies, the payload length prefix) is reserved as a fixed-width
// padded uvarint and patched once the final size is known, so the body is
// marshaled exactly once, directly into the buffer. On error the buffer
// comes back empty.
func appendFrame(buf []byte, f *frame) ([]byte, error) {
	buf = append(buf, 0, 0, 0, 0) // outer length, patched below
	start := len(buf)
	buf = append(buf, f.kind)
	buf = binary.AppendUvarint(buf, f.seq)
	if hasMethod(f.kind) {
		buf = appendString(buf, f.method)
		buf = appendCallHeader(buf, f)
	}
	if hasCode(f.kind) {
		buf = binary.AppendVarint(buf, f.code)
	}
	if f.body != nil {
		buf = append(buf, 0, 0, 0, 0) // payload length, patched below
		pstart := len(buf)
		out, err := codec.AppendMarshal(buf, f.body)
		if err != nil {
			return buf[:0], fmt.Errorf("%w: %v", errEncode, err)
		}
		buf = out
		putPadded(buf[pstart-4:], uint64(len(buf)-pstart))
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(f.payload)))
		buf = append(buf, f.payload...)
	}
	size := len(buf) - start
	if size > maxFrameSize {
		return buf[:0], fmt.Errorf("%w: frame size %d exceeds limit", errEncode, size)
	}
	putPadded(buf[start-4:], uint64(size))
	return buf, nil
}

// appendCallHeader appends the flags byte and the fields it announces.
func appendCallHeader(buf []byte, f *frame) []byte {
	at := len(buf)
	buf = append(buf, 0)
	if f.deadline != 0 {
		buf[at] |= flagDeadline
		buf = binary.AppendVarint(buf, f.deadline)
	}
	if f.trace.Valid() {
		buf[at] |= flagTrace
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.trace.TraceID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.trace.SpanID))
	}
	return buf
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
// frame it owns. A frame that fits its own buffer is parsed where it lies;
// one that does not is read into a pooled buffer borrowed for that frame
// alone, which the next read releases before it waits for more — so a
// connection holds memory for the bytes in flight on it, not for the largest
// frame it ever carried. Method names are interned against the server's
// handler table when one is attached. So a steady stream of frames allocates
// nothing but what outlives the read.
type frameReader struct {
	in       io.Reader
	buf      [readBufSize]byte
	lo, hi   int    // buf[lo:hi] is read from in and not yet taken
	borrowed []byte // for the frame last read, when buf could not hold it
	f        frame  // the frame read returns, overwritten by the next read
	// methods, when set (server side), holds a map[string]string whose keys
	// and values are the registered method names; looking an incoming method
	// up through it makes the name a shared string instead of a per-frame
	// copy.
	methods *atomic.Value
}

func newFrameReader(in io.Reader) *frameReader {
	return &frameReader{in: in}
}

// read returns the next frame: the reader's own, valid until the next read.
// Request, reply, error and stream-end payloads are views of the buffer the
// frame was read into and die with the frame. The kinds that outlive the
// read carry their own copy: a one-way payload is pooled (whoever dispatches
// it releases it with transport.ReleaseBuf), stream-open and stream-item
// payloads are plain allocations, since a handler or an inbox keeps them
// with no release point. A failed read holds nothing borrowed.
func (fr *frameReader) read() (*frame, error) {
	body, err := fr.next()
	if err == nil {
		err = fr.parseInto(&fr.f, body)
	}
	if err != nil {
		fr.giveBack()
		return nil, err
	}
	return &fr.f, nil
}

// next returns the body of the next frame, less its length prefix — any
// standard uvarint is accepted. A body that fits buf is a view of it; a
// larger one is read, past what buf already holds of it, straight into a
// borrowed buffer: on TCP one read syscall more than a small frame costs.
func (fr *frameReader) next() ([]byte, error) {
	fr.giveBack()
	size, n := binary.Uvarint(fr.buf[fr.lo:fr.hi])
	for n == 0 {
		if err := fr.fill(); err != nil {
			if err == io.EOF && fr.hi > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		size, n = binary.Uvarint(fr.buf[fr.lo:fr.hi])
	}
	if n < 0 {
		return nil, errors.New("rpc: frame length overflows 64 bits")
	}
	if size > maxFrameSize {
		return nil, fmt.Errorf("rpc: frame size %d exceeds limit", size)
	}
	fr.lo += n
	if size <= readBufSize {
		for fr.hi-fr.lo < int(size) {
			if err := fr.fill(); err != nil {
				return nil, unexpected(err)
			}
		}
		body := fr.buf[fr.lo : fr.lo+int(size)]
		fr.lo += int(size)
		return body, nil
	}
	fr.borrowed = transport.AcquireBuf(int(size))[:size]
	k := copy(fr.borrowed, fr.buf[fr.lo:fr.hi])
	fr.lo += k
	if _, err := io.ReadFull(fr.in, fr.borrowed[k:]); err != nil {
		return nil, unexpected(err)
	}
	return fr.borrowed, nil
}

// fill moves what buf holds untaken to its front and reads more after it.
func (fr *frameReader) fill() error {
	fr.hi = copy(fr.buf[:], fr.buf[fr.lo:fr.hi])
	fr.lo = 0
	n, err := fr.in.Read(fr.buf[fr.hi:])
	if fr.hi += n; n > 0 {
		return nil
	}
	return err
}

// unexpected is err met inside a frame, where an end of stream is early.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// giveBack returns what the reader borrowed for the frame last read.
func (fr *frameReader) giveBack() {
	transport.ReleaseBuf(fr.borrowed)
	fr.borrowed = nil
}

// keep hands over p, the payload of the frame last read, as a pooled buffer
// the caller owns and releases with transport.ReleaseBuf: the borrowed
// buffer p lies in, which the reader lets go of, with p moved to its front
// so that it goes back to the pool whole (the pool files a buffer by its
// capacity, and one handed on from past its head would drop a class each
// trip) — or else a pooled copy of p.
func (fr *frameReader) keep(p []byte) []byte {
	if b := fr.borrowed; b != nil {
		fr.borrowed = nil
		return b[:copy(b, p)]
	}
	return append(transport.AcquireBuf(len(p)), p...)
}

// parseCallHeader reads the flags byte and the fields it announces into f. A
// zero trace ID names no trace: the frame is read as untraced.
func parseCallHeader(f *frame, b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, errors.New("rpc: call header missing")
	}
	flags, rest := b[0], b[1:]
	if flags&^callFlags != 0 {
		return nil, fmt.Errorf("rpc: unknown call header flags %#x", flags)
	}
	var err error
	if flags&flagDeadline != 0 {
		if f.deadline, rest, err = readVarint(rest); err != nil {
			return nil, err
		}
	}
	if flags&flagTrace != 0 {
		if len(rest) < 16 {
			return nil, errors.New("rpc: trace IDs cut short")
		}
		if id := binary.LittleEndian.Uint64(rest); id != 0 {
			f.trace = transport.SpanContext{TraceID: transport.TraceID(id), SpanID: transport.SpanID(binary.LittleEndian.Uint64(rest[8:]))}
		}
		rest = rest[16:]
	}
	return rest, nil
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
		if rest, err = parseCallHeader(f, rest); err != nil {
			return err
		}
	}
	if hasCode(f.kind) {
		if f.code, rest, err = readVarint(rest); err != nil {
			return err
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
	p := rest[:np:np]
	switch f.kind {
	case kindOneWay:
		f.payload = fr.keep(p)
	case kindStreamOpen, kindStreamItem:
		f.payload = bytes.Clone(p)
	default:
		f.payload = p
	}
	return nil
}
