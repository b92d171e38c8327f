package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// Client issues RPCs to a single target address over pooled synchronous
// connections, the way each DeathStarBench tier keeps persistent Thrift
// connections to its downstream tiers: the connections sit on a ConnStack,
// and each carries one conversation at a time — a call, a one-way frame or a
// stream — so there is no waiter, no table of calls or streams in flight, and
// a reader goroutine only for as long as a stream is open. A stream keeps its
// connection until it ends, and that connection is closed, never parked.
// Outgoing calls flow through a transport.Middleware chain — the same chain
// type the REST client accepts — composed once at construction, so an
// unadorned client pays nothing per call for the abstraction.
//
// Requests travel as typed values (transport.Call.Body) all the way to the
// connection writer, which marshals them straight into its write segment —
// through the generated fast path for registered types — so a steady-state
// Call allocates nothing: pooled call descriptor, the connection's own
// frames, pooled reply buffer, in-place encode. The price of that is a narrow aliasing
// contract: the request value must not be mutated until the call returns,
// including any hedged attempts still in flight (they share the value and
// re-encode it at the wire).
type Client struct {
	target string // service name, for errors and tracing
	mws    []transport.Middleware
	invoke transport.Invoker // composed chain ending in exchangeCall
	stack  *ConnStack[framing]
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithPoolSize does nothing: every call and every stream takes a connection
// of its own, so there is no pool left to size. It exists only because
// benchmark/ladder.go, which a PR outside benchmark/ may not edit, still
// passes it; the benchmark PR that drops that one call deletes this.
func WithPoolSize(int) ClientOption { return func(*Client) {} }

// WithMiddleware appends client middleware; mws run in registration order,
// outermost first, around the wire exchange.
func WithMiddleware(mws ...transport.Middleware) ClientOption {
	return func(c *Client) { c.mws = append(c.mws, mws...) }
}

// NewClient creates a client for the target service at addr. Connections
// are dialed lazily on first use.
func NewClient(network Network, target, addr string, opts ...ClientOption) *Client {
	c := &Client{target: target, stack: NewConnStack(network, "rpc", target, addr, newFraming)}
	for _, o := range opts {
		o(c)
	}
	c.invoke = transport.Build(c.exchangeCall, c.mws...)
	return c
}

// Target returns the service name this client talks to.
func (c *Client) Target() string { return c.target }

// Call invokes method with req encoded via the wire codec, decoding the
// reply into resp (which may be nil for fire-and-forget-style methods that
// return no body). req must not be mutated until Call returns (see Client).
func (c *Client) Call(ctx context.Context, method string, req, resp any) error {
	return transport.Unary(ctx, c.invoke, c.target, "", method, req, resp)
}

// CallRaw invokes method with a pre-encoded payload and returns the raw
// reply payload. The middleware chain runs around the transport exchange.
// Ownership of the reply bytes transfers to the caller: they are never
// recycled, so the caller may retain them indefinitely.
func (c *Client) CallRaw(ctx context.Context, method string, payload []byte) ([]byte, error) {
	call := transport.AcquireCall(c.target, method)
	call.Payload = payload
	err := c.invoke(ctx, call)
	reply := call.Reply
	transport.ReleaseCall(call)
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// Invoke runs the client's middleware chain for a caller-built call
// descriptor, storing the reply in call.Reply. A shard replica calls it
// for every call it and lb.Balanced's pick make on the replica.
func (c *Client) Invoke(ctx context.Context, call *transport.Call) error {
	return c.invoke(ctx, call)
}

// CallOneWay issues a fire-and-forget request: it completes once the frame
// is written and the server never sends a reply, so a one-way burst costs
// one wire write per call with zero round trips. Errors returned here are
// send-side only (marshal, dial, a dead connection); anything that goes
// wrong after the frame leaves — admission shed, handler failure — is the
// server's alone and never reaches this caller. The call still
// runs the full middleware chain with Call.OneWay set, so per-hop stats and
// fault rules apply.
func (c *Client) CallOneWay(ctx context.Context, method string, req any) error {
	return transport.OneWay(ctx, c.invoke, c.target, "", method, req)
}

// Pending is one in-flight pipelined call issued with Go. Wait blocks until
// the reply (or error) arrives; Done exposes the completion channel for
// select-based collection.
type Pending struct {
	done chan struct{}
	err  error
}

// Wait blocks until the call completes and returns its error. The decoded
// response passed to Go is fully written before Wait returns.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// Go issues a pipelined call: the request is sent immediately, on a
// goroutine and a connection of its own, and the caller collects the reply
// later through the returned Pending — so N calls issued back-to-back are N
// connections and N server goroutines at work at once, wall-clock cost ~one
// round trip instead of N. The middleware chain wraps each call end-to-end
// exactly as with Call.
//
// Unlike Call, the request is marshaled eagerly, before Go returns: a
// pipelined caller is free to reuse or mutate req immediately, so the
// typed-body zero-copy path (whose contract forbids that) does not apply.
func (c *Client) Go(ctx context.Context, method string, req, resp any) *Pending {
	p := &Pending{done: make(chan struct{})}
	var payload []byte
	if req != nil {
		var err error
		payload, err = codec.Marshal(req)
		if err != nil {
			p.err = fmt.Errorf("rpc: marshal %s.%s: %w", c.target, method, err)
			close(p.done)
			return p
		}
	}
	go func() {
		defer close(p.done)
		call := transport.AcquireCall(c.target, method)
		call.Payload = payload
		defer transport.ReleaseCall(call)
		if err := c.invoke(ctx, call); err != nil {
			p.err = err
			return
		}
		if resp != nil {
			if err := codec.Unmarshal(call.Reply, resp); err != nil {
				p.err = fmt.Errorf("rpc: unmarshal %s.%s reply: %w", c.target, method, err)
			}
		}
		transport.ReleaseBuf(call.Reply)
	}()
	return p
}

// Stream opens a streaming call: the open runs through the full middleware
// chain (Call.Stream set) and takes a connection the way a call does; the
// returned typed stream has that connection to itself until it ends. ctx
// governs the stream's whole lifetime — cancellation aborts it, waking parked
// Sends and Recvs on both ends.
func (c *Client) Stream(ctx context.Context, method string, req any) (*transport.Stream, error) {
	return transport.OpenStream(ctx, c.invoke, c.target, "", method, req)
}

var _ transport.Streamer = (*Client)(nil)

// openStream is the terminal invoker's streaming branch: it writes the open
// frame on a checked-out connection and hands the connection to the stream,
// whose one goroutine reads it until the stream is over — at which point the
// connection is closed, never parked: item and credit frames may still be in
// flight on it. Cancelling ctx sends the server a coded End (waking its
// handler) and tears the client side down.
func (c *Client) openStream(ctx context.Context, call *transport.Call) error {
	cn, err := c.send(ctx, kindStreamOpen, call)
	if err != nil {
		return err
	}
	st := newStreamCore(cn.State.seq, cn.State.cw)
	st.onTeardown = func() { c.stack.drop(cn) }
	stop := context.AfterFunc(ctx, func() {
		st.cancelWith(CodeDeadline, "stream context done: "+ctx.Err().Error())
	})
	go func() {
		st.teardown(errStreamConnLost(st.readFrom(cn.State.fr)))
		stop()
	}()
	call.StreamBody = &clientStream{core: st}
	return nil
}

// exchangeCall is the terminal invoker: the wire exchange for call, whose
// frame carries the (possibly budget-shrunken) deadline of ctx.
func (c *Client) exchangeCall(ctx context.Context, call *transport.Call) error {
	if call.OneWay {
		return c.sendOneWay(ctx, call)
	}
	if call.Stream {
		return c.openStream(ctx, call)
	}
	return c.exchange(ctx, call)
}

// sendOneWay writes a one-way frame and returns at send: there is nothing to
// read, so the connection goes straight back on the stack — where a serial
// caller's next call on the same P finds it first and queues behind the
// frames just written.
func (c *Client) sendOneWay(ctx context.Context, call *transport.Call) error {
	cn, err := c.send(ctx, kindOneWay, call)
	if err != nil {
		return err
	}
	c.stack.park(procID(), cn)
	return nil
}

// exchange performs the unary wire round trip for call, reading the reply on
// the calling goroutine and setting call.Reply (a pooled buffer — the caller
// that owns the Call decides when to release it) on success. A reply too
// large for the connection's read buffer was read into a pooled one, which
// becomes call.Reply; a small one is copied out of the read buffer before the
// connection is parked: the next caller to check it out reads over it.
func (c *Client) exchange(ctx context.Context, call *transport.Call) error {
	cn, err := c.send(ctx, kindRequest, call)
	if err != nil {
		return err
	}
	return c.stack.Await(ctx, cn, call.Method, func(cn *conn) (bool, error) {
		reply, err := cn.State.readReply()
		switch {
		case err != nil:
			return false, err
		case reply.kind == kindError:
			return true, &Error{Code: int(reply.code), Msg: string(reply.payload)}
		case len(reply.payload) > 0:
			call.Reply = cn.State.fr.keep(reply.payload)
		}
		return true, nil
	})
}

// conn is one pooled connection of a Client.
type conn = Conn[framing]

// framing is a client connection's protocol state. The call or stream that
// checked the connection out is its only reader, so it needs no lock of its
// own (a stream's concurrent writers meet in cw's).
type framing struct {
	cw  *connWriter
	fr  *frameReader
	seq uint64 // of the frame last written
}

func newFraming(nc net.Conn) framing {
	return framing{cw: newConnWriter(nc), fr: newFrameReader(nc)}
}

// readReply reads frames up to the reply to the request last written, and
// returns it as the reader's frame (see frameReader.read). With one call per
// connection and interrupted connections closed, the next frame is that
// reply; the sequence check is the second line of defence, and what fails it
// is discarded as the late reply it would have to be.
func (w *framing) readReply() (*frame, error) {
	for {
		f, err := w.fr.read()
		if err != nil {
			return nil, err
		}
		if f.seq == w.seq && (f.kind == kindReply || f.kind == kindError) {
			return f, nil
		}
		if f.kind == kindOneWay {
			transport.ReleaseBuf(f.payload)
		}
	}
}

// send checks a connection out and writes call on it as a frame of the given
// kind, with the deadline of ctx, returning it still checked out (see
// ConnStack.Send).
func (c *Client) send(ctx context.Context, kind byte, call *transport.Call) (*conn, error) {
	// cw.write is synchronous: f is encoded (or rolled back) when it returns.
	f := frame{kind: kind, method: call.Method, trace: call.Trace, payload: call.Payload, body: call.Body}
	if dl, ok := ctx.Deadline(); ok {
		f.deadline = dl.UnixNano()
	}
	cn, err := c.stack.Send(func(cn *conn) error {
		cn.State.seq++
		f.seq = cn.State.seq
		return cn.State.cw.write(&f)
	})
	if errors.Is(err, errEncode) {
		// Serialization failure, not a transport failure: the frame was
		// rolled back and the connection is healthy.
		return nil, fmt.Errorf("rpc: marshal %s.%s: %w", c.target, f.method, err)
	}
	return cn, err
}

// Close tears down every connection: parked ones close, calls in flight
// fail at their read, open streams end when their readers do.
func (c *Client) Close() error {
	c.stack.Close()
	return nil
}
