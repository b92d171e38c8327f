package rpc

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// Streaming: a stream is opened by a kindStreamOpen request on a connection
// checked out the way a call's is, and from then on that connection carries
// only the stream's frames, each bearing the opening sequence number; when
// the stream is over the connection is closed. Items run one way: the server
// sends kindStreamItem frames and ends the stream with one kindStreamEnd,
// clean (the handler returned nil) or coded (its error); the client sends
// only kindStreamCredit grants and, to abort, a coded kindStreamEnd. An item
// or a clean End from a client is a second conversation, and the server
// closes the connection on it. Flow control is credit-based: the server
// starts with streamWindow item frames of send window, and the client grants
// credit back as its application consumes items, so a slow consumer parks
// the sender instead of ballooning the client's inbox — the per-stream bound
// the broker's push delivery leans on for backpressure.
//
// Teardown matrix (who wakes whom):
//   - conn death: each endpoint's reader fails the connection's stream — a
//     handler parked awaiting credit and a client parked awaiting items wake
//     with a coded retryable error. Nothing else rode that connection.
//   - Server.Close, Client.Close: close conns, which is conn death as above;
//     Server.Close's wg.Wait then observes every stream handler unwind.
//   - context cancellation (client): sends a coded End to the server —
//     canceling the handler's ctx — tears the client side down and closes
//     the connection.
//   - handler return (server): sends End (clean or coded) and tears down;
//     the client drains buffered items, then sees io.EOF or the error, and
//     closes the connection.
const streamWindow = 32

// creditBatch is how many consumed items a receiver accumulates before
// granting them back as send window: one credit frame per half window on a
// healthy stream, instead of one per item.
const creditBatch = streamWindow / 2

// streamCore is one endpoint's half of an open stream, shared by the client
// and server stream types: the send window (the server's), the receive
// inbox (the client's), and the teardown latch. The wire writer is its
// connection's, whose lock keeps a Recv's credit grant and a cancel, or a
// Send and the handler's End, from interleaving their frames.
type streamCore struct {
	seq uint64 // of the open frame; every frame of the stream carries it
	cw  *connWriter
	// mute, set on a server's streams, is the server's hung flag: while it
	// reads true every frame this end would write is dropped instead.
	mute *atomic.Bool

	mu     sync.Mutex
	sendCv *sync.Cond // senders park here awaiting credit
	recvCv *sync.Cond // receivers park here awaiting items

	credit  int   // item frames we may still send
	sendErr error // set: no more sends (teardown)

	inbox    [][]byte // received, unconsumed items (bounded by the window)
	consumed int      // items consumed since the last credit grant
	recvErr  error    // set: inbox is final; drained recvs return this

	torn bool
	done chan struct{} // closed at teardown
	// onTeardown drops the connection (client) or cancels the handler's ctx
	// (server); run once, outside mu.
	onTeardown func()
}

func newStreamCore(seq uint64, cw *connWriter) *streamCore {
	sc := &streamCore{seq: seq, cw: cw, credit: streamWindow, done: make(chan struct{})}
	sc.sendCv = sync.NewCond(&sc.mu)
	sc.recvCv = sync.NewCond(&sc.mu)
	return sc
}

// write puts one stream frame on the wire — unless this end is a hung
// server's, which falls silent on its open streams the way it stops
// answering calls: the frame is lost and the writer none the wiser.
func (sc *streamCore) write(f *frame) error {
	if sc.mute != nil && sc.mute.Load() {
		return nil
	}
	return sc.cw.write(f)
}

// send writes one item frame, parking while the peer's window is exhausted.
func (sc *streamCore) send(b []byte) error {
	sc.mu.Lock()
	for sc.sendErr == nil && sc.credit <= 0 {
		sc.sendCv.Wait()
	}
	if sc.sendErr != nil {
		err := sc.sendErr
		sc.mu.Unlock()
		return err
	}
	sc.credit--
	sc.mu.Unlock()
	if err := sc.write(&frame{kind: kindStreamItem, seq: sc.seq, payload: b}); err != nil {
		// The conn is broken; its reader will fail the stream, but tear it
		// down now so the caller's error is immediate.
		sc.teardown(errStreamConnLost(err))
		return sc.sendErrLocked()
	}
	return nil
}

// errStreamConnLost is what a stream fails with when its connection does:
// coded retryable, so stream consumers fail over the way unary callers do.
func errStreamConnLost(err error) error {
	return transport.WrapCode(transport.CodeUnavailable, err, "rpc: stream conn lost: %v", err)
}

func (sc *streamCore) sendErrLocked() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.sendErr
}

// recv returns the next item. Buffered items always drain before an end
// condition (io.EOF, peer error, teardown) is reported, and consuming
// refills the peer's send window in creditBatch-sized grants.
func (sc *streamCore) recv() ([]byte, error) {
	sc.mu.Lock()
	for len(sc.inbox) == 0 && sc.recvErr == nil {
		sc.recvCv.Wait()
	}
	if len(sc.inbox) == 0 {
		err := sc.recvErr
		sc.mu.Unlock()
		return nil, err
	}
	b := sc.inbox[0]
	sc.inbox[0] = nil
	sc.inbox = sc.inbox[1:]
	if len(sc.inbox) == 0 {
		sc.inbox = nil
	}
	sc.consumed++
	grant := 0
	if sc.consumed >= creditBatch && !sc.torn {
		grant, sc.consumed = sc.consumed, 0
	}
	sc.mu.Unlock()
	if grant > 0 {
		// Best-effort: a failed credit write means the conn is dying and its
		// reader is about to tear the stream down anyway.
		sc.write(&frame{kind: kindStreamCredit, seq: sc.seq, code: int64(grant)}) //nolint:errcheck
	}
	return b, nil
}

// deliver enqueues an item from the peer (called by the conn's reader,
// never blocking it). Items past teardown or a flow-control violation are
// dropped; the window bound keeps the inbox finite against a law-abiding
// peer and the 2× cap guards against a broken one.
func (sc *streamCore) deliver(b []byte) {
	sc.mu.Lock()
	if sc.recvErr != nil || len(sc.inbox) >= 2*streamWindow {
		sc.mu.Unlock()
		return
	}
	sc.inbox = append(sc.inbox, b)
	sc.recvCv.Signal()
	sc.mu.Unlock()
}

// peerCredit refills the send window from a credit frame, up to a cap a
// law-abiding peer never reaches. The grant is the peer's to name, so it is
// capped before it is added: a hostile one must not wrap the window negative
// and park the sender for good.
func (sc *streamCore) peerCredit(n int64) {
	if n <= 0 {
		return
	}
	sc.mu.Lock()
	sc.credit += int(min(n, 2*streamWindow))
	if sc.credit > 2*streamWindow {
		sc.credit = 2 * streamWindow
	}
	sc.sendCv.Broadcast()
	sc.mu.Unlock()
}

// errNotStreamFrame is what a call frame does to a stream's connection.
var errNotStreamFrame = errors.New("rpc: request frame on a stream's connection")

// readFrom is the client stream's reader: it feeds the stream what the server
// writes on the connection until the read fails — which, once the stream is
// over, it does at once, the connection being closed — or the server breaks
// the one-conversation rule.
func (sc *streamCore) readFrom(fr *frameReader) error {
	for {
		f, err := fr.read()
		if err != nil {
			return err
		}
		if !sc.accept(f, false) {
			return errNotStreamFrame
		}
	}
}

// accept routes one frame read off the stream's connection and reports
// whether the connection may go on: a request-shaped frame — a call, a
// one-way, a second open — is a second conversation, and the reader closes
// the connection on it; so, read by the server (fromClient), is an item or a
// clean End, whatever its sequence number, items running server to client
// only. Any other frame that is not the stream's own (the sequence number is
// checked, as readReply checks a reply's) is discarded. Item payloads are the
// plain allocations the reader copied out, which the inbox keeps.
func (sc *streamCore) accept(f *frame, fromClient bool) bool {
	if hasMethod(f.kind) {
		return false
	}
	if fromClient && (f.kind == kindStreamItem || f.kind == kindStreamEnd && f.code == 0) {
		return false
	}
	if f.seq != sc.seq {
		return true
	}
	switch f.kind {
	case kindStreamItem:
		sc.deliver(f.payload)
	case kindStreamEnd:
		sc.peerEnd(f.code, f.payload)
	case kindStreamCredit:
		sc.peerCredit(f.code)
	}
	return true
}

// peerEnd handles an End frame from the peer, which ends the stream: the
// client's view of the handler's return (clean: recv drains to io.EOF), or
// either side's view of a coded abort.
func (sc *streamCore) peerEnd(code int64, msg []byte) {
	if code == 0 {
		sc.teardown(io.EOF)
		return
	}
	sc.teardown(&Error{Code: int(code), Msg: string(msg)})
}

// cancelWith aborts the stream from this side with a coded End.
func (sc *streamCore) cancelWith(code int, msg string) {
	sc.endWith(int64(code), msg, &Error{Code: code, Msg: msg})
}

// endWith ends the stream from this side: a best-effort End to the peer
// (clean when code is 0) unless teardown already happened — conn death tears
// down anyway — then local teardown with err.
func (sc *streamCore) endWith(code int64, msg string, err error) {
	sc.mu.Lock()
	torn := sc.torn
	sc.mu.Unlock()
	if !torn {
		sc.write(&frame{kind: kindStreamEnd, seq: sc.seq, code: code, payload: []byte(msg)}) //nolint:errcheck
	}
	sc.teardown(err)
}

// teardown finalizes both directions (keeping any earlier, more specific
// per-direction error), wakes every parked sender and receiver, closes
// done, and runs the onTeardown hook. Buffered inbox items still drain
// through recv afterwards. Idempotent.
func (sc *streamCore) teardown(err error) {
	sc.mu.Lock()
	if sc.torn {
		sc.mu.Unlock()
		return
	}
	sc.torn = true
	if sc.sendErr == nil {
		sc.sendErr = err
	}
	if sc.recvErr == nil {
		sc.recvErr = err
	}
	hook := sc.onTeardown
	sc.onTeardown = nil
	sc.sendCv.Broadcast()
	sc.recvCv.Broadcast()
	close(sc.done)
	sc.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// clientStream is the client endpoint; it satisfies transport.StreamConn
// and is handed to callers wrapped in a typed transport.Stream.
type clientStream struct {
	core *streamCore
}

var _ transport.StreamConn = (*clientStream)(nil)

func (st *clientStream) Recv() ([]byte, error) { return st.core.recv() }
func (st *clientStream) Cancel() {
	st.core.cancelWith(CodeDeadline, "stream canceled by caller")
}

// ServerStream is the handler's half of one open stream: Send pushes items
// to the client under the flow-control window. The handler returning ends
// the stream — nil sends a clean End, an error sends its code.
type ServerStream struct {
	core *streamCore
}

// Send writes one response item, blocking while the client's receive
// window is exhausted — the per-stream backpressure bound. It fails once
// the stream is torn down (client cancel, conn death, server shutdown).
func (st *ServerStream) Send(payload []byte) error { return st.core.send(payload) }

// SendMsg encodes v with the wire codec and sends it.
func (st *ServerStream) SendMsg(v any) error {
	payload, err := codec.Marshal(v)
	if err != nil {
		return err
	}
	return st.core.send(payload)
}

// Done is closed when the stream is torn down (client cancel, conn death,
// server shutdown) — the liveness signal long-running push handlers poll
// between waits.
func (st *ServerStream) Done() <-chan struct{} { return st.core.done }

// finish ends the stream after the handler returns: an End frame, clean or
// carrying the handler's error code and message, goes to the client.
func (st *ServerStream) finish(err error) {
	if err == nil {
		st.core.endWith(0, "", io.EOF)
		return
	}
	msg := err.Error()
	var e *Error
	if errors.As(err, &e) {
		msg = e.Msg
	}
	st.core.endWith(int64(ErrorCode(err)), msg, err)
}

// StreamHandler processes one open stream: payload is the opening request
// body, st the stream. Returning nil sends the client a clean end; an error
// sends its code. The full interceptor chain runs around the stream's
// lifetime with the opening payload, so admission control and tracing see
// streaming calls like unary ones.
type StreamHandler func(ctx *Ctx, payload []byte, st *ServerStream) error
