package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// maxRetainedBuffer bounds the scratch buffers a connection keeps across
// frames (encode segments, read envelope) so one oversized frame does not
// pin megabytes on an otherwise idle connection.
const maxRetainedBuffer = 64 << 10

// segSize is the target size of one write segment. A segment that grows past
// it is sealed and a fresh one opened, so a coalesced burst becomes a short
// chain of segments flushed in one vectored write instead of one ever-growing
// contiguous buffer that would have to be copied to grow.
const segSize = 32 << 10

// maxFreeSegs bounds the recycled-segment freelist per connection.
const maxFreeSegs = 8

// errEncode marks a failure to serialize the frame's typed body. The
// connection itself is untouched — the half-written frame was rolled back —
// so callers must report it to the application instead of failing the
// connection or redialing.
var errEncode = errors.New("rpc: encode request")

// connWriter serializes frame writes onto one connection. A connection that
// carries calls has one sender at a time and the lock is uncontended; the
// concurrent senders are a stream connection's streams and, on the server,
// the handlers answering them. It carries the hot-path optimizations of the
// write side:
//
//   - in-place encode: frames are appended directly into a connection-owned
//     segment under the writer lock — a frame carrying a typed body is
//     marshaled straight into that segment through the codec fast path, so
//     no per-call encode buffer ever exists;
//   - flush coalescing: a sender that can see another sender already queued
//     behind it leaves its bytes in the open segment and lets the last
//     queued sender flush, so K streams sending on one connection pay ~1
//     flush (the syscall-shaped cost on a real socket), not K. A lone
//     sender — every call — flushes immediately: latency is never traded
//     for batching;
//   - vectored flush: a burst that spilled across segments goes out in one
//     net.Buffers writev instead of segment-by-segment writes (or a copy
//     into one contiguous buffer).
type connWriter struct {
	// queued counts senders that have entered write and not yet performed
	// their buffered write; the sender that decrements it to zero is the
	// last of the burst and owns the flush.
	queued atomic.Int32

	mu   sync.Mutex
	w    io.Writer
	err  error    // sticky: first write failure; the conn is dead
	cur  []byte   // open segment, frames append here
	bufs [][]byte // sealed segments awaiting flush, in write order
	free [][]byte // recycled segments
	iov  net.Buffers
}

func newConnWriter(w io.Writer) *connWriter {
	return &connWriter{w: w}
}

// write appends the length-prefixed frame to the connection, flushing unless
// a queued sender behind this one is guaranteed to flush later. An errEncode
// failure rolls the frame back and leaves the connection usable; any other
// error is sticky.
func (cw *connWriter) write(f *frame) error {
	cw.queued.Add(1)
	cw.mu.Lock()
	defer cw.mu.Unlock()
	last := cw.queued.Add(-1) == 0
	if cw.err != nil {
		return cw.err
	}
	encErr := cw.encodeLocked(f)
	if len(cw.cur) >= segSize {
		cw.sealLocked()
	}
	if last {
		// Flush even when this frame's encode failed: earlier senders of the
		// burst left their (complete) frames behind and counted on the last
		// sender to push them out.
		if ferr := cw.flushLocked(); ferr != nil && encErr == nil {
			return ferr
		}
	}
	// Not last: a sender is queued behind us — it either flushes or fails
	// the connection, so our bytes are never stranded in the segment.
	return encErr
}

// encodeLocked appends f to the open segment. The outer length prefix (and,
// for typed bodies, the payload length prefix) is reserved as a fixed-width
// padded uvarint and patched once the final size is known, so the body is
// marshaled exactly once, directly into the segment. On error the segment is
// rolled back to its pre-frame length.
func (cw *connWriter) encodeLocked(f *frame) error {
	mark := len(cw.cur)
	buf := append(cw.cur, 0, 0, 0, 0) // outer length, patched below
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
			cw.cur = buf[:mark]
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
		cw.cur = buf[:mark]
		return fmt.Errorf("%w: frame size %d exceeds limit", errEncode, size)
	}
	putPadded(buf[start-4:], uint64(size))
	cw.cur = buf
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

// sealLocked closes the open segment onto the flush chain and opens a fresh
// one (recycled when possible).
func (cw *connWriter) sealLocked() {
	if len(cw.cur) == 0 {
		return
	}
	cw.bufs = append(cw.bufs, cw.cur)
	if n := len(cw.free); n > 0 {
		cw.cur = cw.free[n-1]
		cw.free[n-1] = nil
		cw.free = cw.free[:n-1]
	} else {
		cw.cur = make([]byte, 0, segSize)
	}
}

// flushLocked writes every sealed segment plus the open one to the
// connection — one plain Write for the common single-segment case, one
// vectored net.Buffers write when a burst spilled across segments — and
// recycles the segments. Write errors are sticky.
func (cw *connWriter) flushLocked() error {
	var err error
	if len(cw.bufs) == 0 {
		if len(cw.cur) == 0 {
			return nil
		}
		_, err = cw.w.Write(cw.cur)
	} else {
		// net.Buffers.WriteTo consumes its receiver, so hand it a scratch
		// copy of the slice headers and keep the originals for recycling.
		iov := cw.iov[:0]
		for _, b := range cw.bufs {
			iov = append(iov, b)
		}
		if len(cw.cur) > 0 {
			iov = append(iov, cw.cur)
		}
		cw.iov = iov
		nb := iov
		_, err = nb.WriteTo(cw.w)
		for i, b := range cw.bufs {
			if cap(b) <= maxRetainedBuffer && len(cw.free) < maxFreeSegs {
				cw.free = append(cw.free, b[:0])
			}
			cw.bufs[i] = nil
		}
		cw.bufs = cw.bufs[:0]
	}
	cw.cur = cw.cur[:0]
	if cap(cw.cur) > maxRetainedBuffer {
		cw.cur = nil
	}
	if err != nil {
		cw.err = err
	}
	return err
}

// framePool recycles frame structs across reads and writes; see getFrame.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// getFrame returns a zeroed frame. Pair with putFrame once every field the
// holder cares about has been detached.
func getFrame() *frame { return framePool.Get().(*frame) }

// putFrame recycles f. The caller must have detached (or released) the
// payload first — putFrame only drops the references.
func putFrame(f *frame) {
	*f = frame{}
	framePool.Put(f)
}

// frameReader reads length-prefixed frames from a connection, reusing one
// envelope buffer across frames. Frame structs come from a pool, method
// names are interned against the server's handler table when one is
// attached, and unary payloads are copied into pooled buffers — so a steady
// stream of frames recirculates a fixed working set instead of allocating
// per message.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
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
// A frame larger than this still arrives whole — it only takes a second Read.
const readBufSize = 16 << 10

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize)}
}

// read returns the next frame from the pool. The returned frame owns its
// payload: unary kinds carry a pooled buffer (release with
// transport.ReleaseBuf once dead), stream kinds a plain allocation (stream
// inboxes retain payloads indefinitely, so they must not recycle underneath
// a consumer). Recycle the frame itself with putFrame.
func (fr *frameReader) read() (*frame, error) {
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
	f := getFrame()
	if err := fr.parseInto(f, body); err != nil {
		putFrame(f)
		return nil, err
	}
	return f, nil
}

// parseInto decodes a frame body (excluding the outer length prefix) into f,
// copying the payload out of the shared envelope buffer per the ownership
// rules documented on read.
func (fr *frameReader) parseInto(f *frame, body []byte) error {
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
		f.method = ""
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
		f.payload = nil
		return nil
	}
	switch f.kind {
	case kindRequest, kindOneWay, kindReply, kindError:
		// Unary payloads live until the handler replies (server) or the
		// caller decodes (client); both release back to the pool.
		f.payload = append(transport.AcquireBuf(int(np)), rest[:np]...)
	default:
		// Stream payloads are retained by stream inboxes with no release
		// point, so they get plain garbage-collected allocations.
		f.payload = append([]byte(nil), rest[:np]...)
	}
	return nil
}
