package transport

import (
	"context"
	"fmt"

	"dsb/internal/codec"
)

// StreamConn is the client's raw wire surface of one open stream: the
// terminal invoker sets it on a streaming Call, and the typed Stream wraps
// it. Items run from server to client as opaque payload frames under a
// flow-control window the client refills as it consumes them.
type StreamConn interface {
	// Recv returns the next item from the server, io.EOF after a clean end,
	// or the server's coded error. Items already received are always
	// drained before an end condition is reported.
	Recv() ([]byte, error)
	// Cancel aborts the stream from the client: a parked Recv wakes, and
	// the server observes the abort. Safe to call more than once.
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

// Recv decodes the next item into v (nil v discards the payload). It
// returns io.EOF after the server's clean end, or the server's coded error.
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

// Cancel aborts the stream.
func (s *Stream) Cancel() { s.raw.Cancel() }

// Streamer is the optional streaming extension of Caller. *rpc.Client,
// *lb.Balanced, and *shard.Replica implement it through OpenStream;
// adopters type-assert and fall back to their unary path (long-poll
// consume) when the underlying caller is a fake or an older transport.
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
