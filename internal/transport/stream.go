package transport

import (
	"context"
	"errors"
	"fmt"
	"io"

	"dsb/internal/codec"
)

// StreamConn is the raw wire surface of one open stream: the terminal
// invoker sets it on a streaming Call, and the typed Stream wraps it. Both
// directions carry opaque payload frames under per-direction flow-control
// windows; the semantics (who sends, who receives, when to half-close) are
// the method contract's business, not the transport's.
type StreamConn interface {
	// Send writes one item frame, blocking while the peer's receive window
	// is exhausted. It fails once the stream is torn down or half-closed.
	Send(payload []byte) error
	// CloseSend half-closes the local send side: the peer's Recv drains
	// whatever is in flight and then sees io.EOF. Receiving stays open.
	CloseSend() error
	// Recv returns the next item from the peer, io.EOF after a clean end,
	// or the peer's coded error. Items already received are always drained
	// before an end condition is reported.
	Recv() ([]byte, error)
	// Cancel aborts the stream from this side: parked Sends and Recvs wake,
	// and the peer observes the abort. Safe to call more than once.
	Cancel()
}

// Stream is the typed view of an open stream, encoding items with the wire
// codec the way Caller.Call encodes unary bodies. The zero item decode
// contract matches Call: pass nil to skip decoding.
type Stream struct {
	raw    StreamConn
	target string
	method string
}

// NewStream wraps a raw stream conn; clients construct it after their
// middleware chain has populated Call.StreamBody.
func NewStream(raw StreamConn, target, method string) *Stream {
	return &Stream{raw: raw, target: target, method: method}
}

// Send encodes v and writes one item frame.
func (s *Stream) Send(v any) error {
	payload, err := codec.Marshal(v)
	if err != nil {
		return fmt.Errorf("transport: marshal %s.%s stream item: %w", s.target, s.method, err)
	}
	return s.raw.Send(payload)
}

// Recv decodes the next item into v (nil v discards the payload). It
// returns io.EOF after the peer's clean end, or the peer's coded error.
func (s *Stream) Recv(v any) error {
	payload, err := s.raw.Recv()
	if err != nil {
		return err
	}
	if v == nil {
		return nil
	}
	if err := codec.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("transport: unmarshal %s.%s stream item: %w", s.target, s.method, err)
	}
	return nil
}

// CloseSend half-closes the send side; the peer's Recv sees io.EOF.
func (s *Stream) CloseSend() error { return s.raw.CloseSend() }

// Cancel aborts the stream from this side.
func (s *Stream) Cancel() { s.raw.Cancel() }

// IsStreamEnd reports whether a Recv error is the clean end-of-stream.
func IsStreamEnd(err error) bool { return errors.Is(err, io.EOF) }

// Streamer is the optional streaming extension of Caller. *rpc.Client,
// *lb.Balanced, and *shard.Replica implement it through OpenStream;
// adopters type-assert and fall back to their unary path (long-poll
// consume, per-sample calls) when the underlying caller is a fake or an
// older transport.
type Streamer interface {
	Stream(ctx context.Context, method string, req any) (*Stream, error)
}

// OpenStream is the shared client-side open path: it marshals the initial
// request, runs the caller's composed middleware chain with Call.Stream
// set — so tracing, breakers, retries, and fault injection all observe the
// streaming hop like any other — and wraps the StreamConn the terminal
// invoker attached. addr pins the call to one replica, as in Unary. ctx
// governs the whole stream's lifetime, not just the open:
// cancellation tears the stream down.
func OpenStream(ctx context.Context, invoke Invoker, target, addr, method string, req any) (*Stream, error) {
	var payload []byte
	if req != nil {
		var err error
		payload, err = codec.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("transport: marshal %s.%s: %w", target, method, err)
		}
	}
	call := NewCall(target, method, payload)
	call.Addr = addr
	call.Stream = true
	if err := invoke(ctx, call); err != nil {
		return nil, err
	}
	if call.StreamBody == nil {
		return nil, Errorf(CodeInternal, "transport: %s.%s: terminal invoker opened no stream", target, method)
	}
	return NewStream(call.StreamBody, target, method), nil
}
