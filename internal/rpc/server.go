package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// Ctx is the per-request server context. It embeds a context.Context whose
// deadline is the one the client sent, so a tier stops working on a request
// its caller has abandoned.
//
// The Ctx itself is freshly allocated per request — handlers routinely
// derive child contexts from it (context.WithTimeout and friends) whose
// timer goroutines can outlive the request, so recycling it would be a
// use-after-free; it is the one per-request allocation the unary hot path
// keeps. The request payload, by contrast, is a view of the connection's
// read buffer, which the next frame overwrites: a handler must not retain
// the payload slice past its return — copy out anything that needs to live
// longer. Returning it (or a sub-slice) as the response is fine; the
// dispatcher writes the reply before the connection reads again.
type Ctx struct {
	context.Context
	// Method is the invoked method name, e.g. "ComposePost".
	Method string
	// Service is the name the server was created with; tracing uses it to
	// attribute spans to microservices.
	Service string
	// Trace is the caller's span, which this request's work is a child of;
	// zero when the caller is not traced.
	Trace transport.SpanContext

	// reply is the typed reply (Reply), encoded by the connection writer.
	reply any
	// ownReply says the handler's reply payload is a pooled buffer it handed
	// over (OwnReply), which the dispatcher recycles once the reply frame is
	// written. A flag, not the buffer: a 24-byte slice here would put every
	// request's Ctx one size class up.
	ownReply bool
}

// Reply makes v this request's reply and returns the (nil, nil) a handler
// returns with it: the connection writer encodes v straight into the reply
// frame, as it encodes a typed request, so no reply buffer exists. v must
// not change until the handler has returned. A v that fails to encode goes
// back as a CodeInternal error.
func (c *Ctx) Reply(v any) ([]byte, error) {
	c.reply = v
	return nil, nil
}

// TypedReply is the value the handler gave Reply, for an interceptor that
// looks at replies; nil when the reply is raw bytes.
func (c *Ctx) TypedReply() any { return c.reply }

// OwnReply makes buf — a pooled buffer the handler owns outright: one it
// acquired and filled itself, or the pooled reply of a downstream call it
// is relaying — this request's reply payload, and returns it for the
// handler to return. Ownership passes to the dispatcher, which recycles it
// after the reply frame is written; the handler must not touch it again.
func (c *Ctx) OwnReply(buf []byte) []byte {
	c.ownReply = true
	return buf
}

// Handler processes a raw request payload and returns the raw response (or,
// through Ctx.Reply, a typed one). The payload is a view of the connection's
// read buffer: do not retain it past return; returning it (or a sub-slice)
// as the response is fine — the dispatcher writes the reply before the
// connection reads its next frame.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// ServerInterceptor wraps request handling; interceptors run in
// registration order, outermost first.
type ServerInterceptor func(ctx *Ctx, payload []byte, next Handler) ([]byte, error)

// Server serves RPC requests for one microservice instance.
//
// A request runs on the goroutine of the connection it arrived on: a client
// sends one call at a time per connection, so while the handler runs there
// is nothing else to read, and a hop costs the server one wake-up. Tier
// concurrency is the number of connections callers hold open; a parked
// long-poll occupies its own connection and starves nobody. One-way frames
// are the exception — their sender does not wait, so the next frame may be
// right behind: they run on a demand-grown worker pool (a parked worker
// takes the frame when one is ready instantly, a new one is spawned and
// parks itself afterwards when none is), and a slow one-way handler never
// sits in front of the next call on its connection.
type Server struct {
	service      string
	mu           sync.Mutex
	handlers     map[string]Handler
	streams      map[string]StreamHandler
	interceptors []ServerInterceptor
	acc          Acceptor
	wg           sync.WaitGroup // one per one-way frame and stream in flight
	hung         atomic.Bool
	onClose      []func()
	oneways      chan frame

	// dispatchTable holds a map[string]Handler from each unary method to its
	// handler already wrapped in the interceptor chain. Handle and Use
	// republish it whole, so dispatch reads it without taking mu.
	dispatchTable atomic.Value

	// methodNames holds a map[string]string of registered method (and
	// stream-method) names to themselves; frame readers intern incoming
	// method strings against it instead of copying per frame.
	methodNames atomic.Value
}

// NewServer creates a server for the named service.
func NewServer(service string) *Server {
	return &Server{
		service:  service,
		handlers: make(map[string]Handler),
		streams:  make(map[string]StreamHandler),
		oneways:  make(chan frame),
	}
}

// Service returns the service name.
func (s *Server) Service() string { return s.service }

// Use appends a server interceptor; it wraps every method, including ones
// registered earlier.
func (s *Server) Use(i ServerInterceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors = append(s.interceptors, i)
	s.publishDispatchLocked()
}

// Hang switches the server into the failure mode of a crashed-but-connected
// peer: it keeps accepting connections and reading frames but drops them
// without dispatching or replying, and whatever its open streams' handlers
// send — items, ends, credits — is dropped too, so callers burn their full
// deadline instead of failing fast on a refused dial. Frames are still consumed — a
// reader that stops draining would fill the connection's buffer and then
// park client writers instead of modeling a silent peer. The fault layer
// uses this to simulate crashes that only lease expiry can detect.
func (s *Server) Hang() { s.hung.Store(true) }

// Resume returns a hung server to normal dispatch — a restarted replica,
// which has none of its old connections: they are closed, so calls still
// waiting on the corpse fail at once instead of at their deadline, streams
// that went silent end, and clients redial.
func (s *Server) Resume() {
	s.hung.Store(false)
	s.acc.closeConns()
}

// OnClose registers a hook that runs during Close, after the server stops
// accepting but before it waits for in-flight handlers. Hooks are how
// long-poll services wake parked handlers at shutdown — without one, Close
// would block on handlers waiting out their full poll budget (and, on a
// hung server, forever).
func (s *Server) OnClose(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onClose = append(s.onClose, fn)
}

// internMethod republishes the method-name intern table. Caller holds s.mu.
func (s *Server) internMethodLocked(method string) {
	old, _ := s.methodNames.Load().(map[string]string)
	next := make(map[string]string, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[method] = method
	s.methodNames.Store(next)
}

// Handle registers a raw handler for method.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %s.%s", s.service, method))
	}
	if _, dup := s.streams[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %s.%s", s.service, method))
	}
	s.handlers[method] = h
	s.internMethodLocked(method)
	s.publishDispatchLocked()
}

// HandleTyped registers fn for method behind the decode of its request: an
// empty payload is the zero Req, one that does not decode into a Req is
// answered CodeBadRequest.
func HandleTyped[Req any](s *Server, method string, fn func(ctx *Ctx, req *Req) ([]byte, error)) {
	s.Handle(method, func(ctx *Ctx, payload []byte) ([]byte, error) {
		var req Req
		if err := codec.Unmarshal(payload, &req); len(payload) > 0 && err != nil {
			return nil, Errorf(CodeBadRequest, "%s.%s: decode: %v", s.service, method, err)
		}
		return fn(ctx, &req)
	})
}

// HandleStream registers a stream handler for method. Unary and stream
// methods share one namespace — a streaming open of a unary method (or vice
// versa) fails with CodeNotFound.
func (s *Server) HandleStream(method string, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %s.%s", s.service, method))
	}
	if _, dup := s.streams[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %s.%s", s.service, method))
	}
	s.streams[method] = h
	s.internMethodLocked(method)
}

// Serve accepts connections on l until the listener or server is closed.
// It returns after the accept loop exits; in-flight requests drain in the
// background and are waited on by Close.
func (s *Server) Serve(l net.Listener) error { return s.acc.Serve(l, s.serveConn) }

// Start listens on addr on the given network and serves in a background
// goroutine, returning the bound address (useful with TCP port 0).
func (s *Server) Start(network Network, addr string) (string, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return "", err
	}
	go s.Serve(l) //nolint:errcheck // accept-loop exit is signaled via Close
	return l.Addr().String(), nil
}

// Close stops accepting, closes all connections, and waits for in-flight
// handlers to finish.
func (s *Server) Close() error {
	if !s.acc.Shut() { // Serve admits no connection from here on
		return nil
	}
	s.mu.Lock()
	hooks := s.onClose
	s.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	s.acc.Wait()
	s.wg.Wait()
	// All read loops have exited and all dispatches drained, so nothing can
	// enqueue anymore; closing the channel retires the parked workers.
	close(s.oneways)
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	// A connection carries one conversation at a time: calls one after
	// another, or — once a stream opens on it — that stream alone until the
	// connection closes.
	var stream *ServerStream
	defer func() {
		if stream != nil {
			// Conn teardown (peer death or Server.Close closing the conn) fails
			// the stream: a parked sender or receiver wakes, the handler's ctx is
			// cancelled, and Close's wg.Wait completes instead of deadlocking on
			// a stream parked mid-window.
			stream.core.teardown(Errorf(CodeUnavailable, "%s: connection closed", s.service))
		}
	}()
	fr := newFrameReader(conn)
	fr.methods = &s.methodNames
	cw := newConnWriter(conn)
	for {
		f, err := fr.read()
		if err != nil {
			return
		}
		switch {
		case s.hung.Load():
			// Crashed peer: consume every frame, never answer.
			if f.kind == kindOneWay {
				transport.ReleaseBuf(f.payload)
			}
		case stream != nil:
			// Credit refills the handler's window; a coded End is the client's
			// abort, whose teardown also cancels the handler's ctx. An item or
			// a clean End closes the connection, which tears the stream down.
			if !stream.core.accept(f, true) {
				return
			}
		case f.kind == kindRequest:
			s.dispatch(conn, cw, f)
		case f.kind == kindOneWay:
			// The frame is the reader's: the worker gets a copy of it, and
			// the payload the reader copied out for it.
			s.wg.Add(1)
			select {
			case s.oneways <- *f: // a parked worker takes it immediately
			default:
				go s.worker(*f) // none parked: grow the pool
			}
		case f.kind == kindStreamOpen:
			// The stream exists from here, in the read loop, before the handler
			// goroutine does: the client's abort can be one frame behind the
			// open, and a stream created only once its handler gets scheduled
			// would silently drop it. The handler goroutine gets a
			// copy of the open frame, whose payload the reader copied out.
			base, cancel := context.WithCancel(context.Background())
			if f.deadline != 0 {
				inner := cancel
				var cancelDL context.CancelFunc
				base, cancelDL = context.WithDeadline(base, time.Unix(0, f.deadline))
				cancel = func() { cancelDL(); inner() }
			}
			stream = &ServerStream{core: newStreamCore(f.seq, cw)}
			stream.core.mute = &s.hung
			stream.core.onTeardown = cancel
			s.wg.Add(1)
			go s.dispatchStream(stream, base, *f)
		}
		// Anything else is a stray frame, ignored.
	}
}

// worker runs one one-way frame, then parks on the channel to serve more
// until the server closes it.
func (s *Server) worker(f frame) {
	s.runOneWay(&f)
	for f := range s.oneways {
		s.runOneWay(&f)
	}
}

func (s *Server) runOneWay(f *frame) {
	defer s.wg.Done()
	s.dispatch(nil, nil, f) // nothing is written back
}

// publishDispatchLocked rebuilds dispatchTable from the current handlers and
// interceptors; an interceptor-free server maps each method to its raw
// handler. Caller holds s.mu.
func (s *Server) publishDispatchLocked() {
	table := make(map[string]Handler, len(s.handlers))
	for method, h := range s.handlers {
		table[method] = composeChain(h, s.interceptors)
	}
	s.dispatchTable.Store(table)
}

// composeChain wraps h in chain, chain[0] outermost.
func composeChain(h Handler, chain []ServerInterceptor) Handler {
	wrapped := h
	for i := len(chain) - 1; i >= 0; i-- {
		ic, next := chain[i], wrapped
		wrapped = func(ctx *Ctx, payload []byte) ([]byte, error) {
			return ic(ctx, payload, next)
		}
	}
	return wrapped
}

// dispatchStream runs one stream handler to completion; the stream already
// has its connection (an abort arriving before the handler is scheduled has
// already torn it down). The unary interceptor chain wraps the
// stream's whole lifetime with the opening payload — admission control
// parks or sheds the open, tracing spans the stream — and the handler's
// return value goes back as the End frame.
func (s *Server) dispatchStream(st *ServerStream, base context.Context, f frame) {
	defer s.wg.Done()
	ctx := &Ctx{Context: base, Method: f.method, Service: s.service, Trace: f.trace}

	s.mu.Lock()
	h := s.streams[f.method]
	chain := s.interceptors
	s.mu.Unlock()

	var err error
	if h == nil {
		err = Errorf(CodeNotFound, "%s: no such stream method %q", s.service, f.method)
	} else {
		wrapped := composeChain(func(ctx *Ctx, payload []byte) ([]byte, error) {
			return nil, h(ctx, payload, st)
		}, chain)
		_, err = safeCall(wrapped, ctx, f.payload)
	}
	st.finish(err)
}

// dispatch runs one unary (or one-way) request: handler chain, reply frame,
// and the release of what the dispatch owns once the reply is on the wire.
// f is the connection reader's frame, or for a one-way a worker's copy of
// it.
func (s *Server) dispatch(conn net.Conn, cw *connWriter, f *frame) {
	ctx := &Ctx{Context: context.Background(), Method: f.method, Service: s.service, Trace: f.trace}
	if f.deadline != 0 {
		var cancel context.CancelFunc
		ctx.Context, cancel = context.WithDeadline(ctx.Context, time.Unix(0, f.deadline))
		defer cancel()
	}
	var resp []byte
	var err error
	// The reply is on the wire (or the conn is dead) when this runs; the
	// request payload — which the reply may alias (an echo handler returns
	// its input) — and any owned reply buffer are dead now, and only now.
	defer func() { release(ctx, f, resp) }()
	table, _ := s.dispatchTable.Load().(map[string]Handler)
	if h := table[f.method]; h == nil {
		err = Errorf(CodeNotFound, "%s: no such method %q", s.service, f.method)
	} else {
		resp, err = safeCall(h, ctx, f.payload)
	}

	if f.kind == kindOneWay {
		// Fire-and-forget: the full interceptor chain and handler ran, but
		// nothing goes back on the wire, a failure included.
		return
	}

	out := frame{seq: f.seq}
	if err == nil {
		out.kind, out.payload, out.body = kindReply, resp, ctx.reply
		werr := cw.write(&out)
		if !errors.Is(werr, errEncode) {
			if werr != nil {
				conn.Close()
			}
			return
		}
		// Nothing of the reply was written: the caller gets the failure.
		err = Errorf(CodeInternal, "%s.%s: %v", s.service, f.method, werr)
	}
	out.kind, out.body = kindError, nil
	out.code = int64(ErrorCode(err))
	var e *Error
	if errors.As(err, &e) {
		out.payload = []byte(e.Msg)
	} else {
		out.payload = []byte(err.Error())
	}
	if werr := cw.write(&out); werr != nil {
		conn.Close()
	}
}

// release returns what a dispatch owns: a one-way frame's pooled payload and
// the reply payload resp when it was handed over with OwnReply. (A request
// payload is the reader's, and the Ctx itself is not pooled — see the Ctx
// doc comment.)
func release(ctx *Ctx, f *frame, resp []byte) {
	if f.kind == kindOneWay {
		transport.ReleaseBuf(f.payload)
	}
	if ctx.ownReply {
		transport.ReleaseBuf(resp)
	}
}

// safeCall converts a handler panic into a coded error so one bad request
// cannot take down a microservice instance.
func safeCall(h Handler, ctx *Ctx, payload []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Errorf(CodeInternal, "panic in %s.%s: %v", ctx.Service, ctx.Method, r)
		}
	}()
	return h(ctx, payload)
}
