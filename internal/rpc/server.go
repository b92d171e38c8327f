package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/transport"
)

// deadlineHeader carries the absolute call deadline (unix nanoseconds) so
// downstream tiers stop working on requests the client has abandoned.
const deadlineHeader = transport.DeadlineHeader

// Ctx is the per-request server context. It embeds a context.Context whose
// deadline reflects the propagated client deadline.
//
// The Ctx itself is freshly allocated per request — handlers routinely
// derive child contexts from it (context.WithTimeout and friends) whose
// timer goroutines can outlive the request, so recycling it would be a
// use-after-free; it is the one per-request allocation the unary hot path
// keeps. The request payload, by contrast, IS pooled: a handler must not
// retain the payload slice past its return — copy out anything that needs
// to live longer. Returning it (or a sub-slice) as the response is fine;
// the dispatcher writes the reply before recycling the request.
type Ctx struct {
	context.Context
	// Method is the invoked method name, e.g. "ComposePost".
	Method string
	// Service is the name the server was created with; tracing uses it to
	// attribute spans to microservices.
	Service string
	// Headers are the request headers (trace context, deadline).
	Headers map[string]string
	// ReplyHeaders, if populated by the handler or an interceptor, are sent
	// back with the response.
	ReplyHeaders map[string]string

	// replyBuf is the pooled buffer behind the reply payload (PooledReply,
	// OwnReply), recycled by the dispatcher once the reply frame is written.
	replyBuf []byte
}

// PooledReply encodes v into a pooled buffer and returns it for use as the
// handler's reply payload. The dispatcher recycles the buffer after the
// reply frame is written, so a steady stream of typed replies allocates
// nothing. Only the reply payload of this request may use it — do not retain
// the returned slice past the handler's return.
func (c *Ctx) PooledReply(v any) ([]byte, error) {
	buf := transport.AcquireBuf(0)
	out, err := codec.AppendMarshal(buf, v)
	if err != nil {
		transport.ReleaseBuf(buf)
		return nil, err
	}
	return c.OwnReply(out), nil
}

// OwnReply makes buf — a pooled buffer the handler owns outright: one it
// acquired and filled itself, or the pooled reply of a downstream call it
// is relaying — this request's reply payload, and returns it. Ownership
// passes to the dispatcher, which recycles it after the reply frame is
// written; the handler must not touch it again.
func (c *Ctx) OwnReply(buf []byte) []byte {
	c.replyBuf = buf
	return buf
}

// Handler processes a raw request payload and returns the raw response.
// The payload is pooled: do not retain it past return; returning it (or a
// sub-slice) as the response is fine — the dispatcher writes the reply
// before recycling the request.
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
	listeners    []net.Listener
	conns        map[net.Conn]struct{}
	closed       bool
	wg           sync.WaitGroup
	sem          chan struct{} // nil = unlimited concurrency
	hung         atomic.Bool
	onClose      []func()
	oneways      chan *frame

	// dispatchTable holds a map[string]Handler from each unary method to its
	// handler already wrapped in the interceptor chain. Handle and Use
	// republish it whole, so dispatch reads it without taking mu.
	dispatchTable atomic.Value

	// methodNames holds a map[string]string of registered method (and
	// stream-method) names to themselves; frame readers intern incoming
	// method strings against it instead of copying per frame.
	methodNames atomic.Value

	// onewayErrs counts one-way requests whose handler (or an interceptor)
	// failed. There is no reply frame to carry the error back, so this
	// counter is where post-send failures surface — the stats half of the
	// fire-and-forget contract.
	onewayErrs atomic.Int64
}

// NewServer creates a server for the named service.
func NewServer(service string) *Server {
	return &Server{
		service:  service,
		handlers: make(map[string]Handler),
		streams:  make(map[string]StreamHandler),
		conns:    make(map[net.Conn]struct{}),
		oneways:  make(chan *frame),
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

// SetConcurrency bounds the number of requests processed simultaneously.
// Zero or negative means unlimited. Used by the backpressure experiments to
// model a tier with fixed worker capacity.
func (s *Server) SetConcurrency(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		s.sem = nil
		return
	}
	s.sem = make(chan struct{}, n)
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
	s.closeConns()
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
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close raced ahead of us and never saw this listener; shut it
		// down here or dials to its address would block forever.
		l.Close()
		return errors.New("rpc: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // Serve admits no connection from here on
	ls := s.listeners
	hooks := s.onClose
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	s.closeConns()
	for _, fn := range hooks {
		fn()
	}
	s.wg.Wait()
	// All read loops have exited and all dispatches drained, so nothing can
	// enqueue anymore; closing the channel retires the parked workers.
	close(s.oneways)
	return nil
}

// closeConns closes every open connection; each one's serveConn unwinds.
func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
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
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
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
			transport.ReleaseBuf(f.payload)
			putFrame(f)
		case stream != nil:
			// Clean End = client half-close (handler's Recv drains to io.EOF,
			// sends continue); coded End = client abort, whose teardown also
			// cancels the handler's ctx.
			ok := stream.core.accept(f, false)
			putFrame(f)
			if !ok {
				return
			}
		case f.kind == kindRequest:
			s.dispatch(conn, cw, f)
		case f.kind == kindOneWay:
			s.wg.Add(1)
			select {
			case s.oneways <- f: // a parked worker takes it immediately
			default:
				go s.worker(f) // none parked: grow the pool
			}
		case f.kind == kindStreamOpen:
			// The stream exists from here, in the read loop, before the handler
			// goroutine does: the client's first item can be one frame behind
			// the open, and a stream created only once its handler gets
			// scheduled would silently drop it. The open frame is retained by
			// the handler goroutine, so it is not recycled.
			base, cancel := context.WithCancel(context.Background())
			if v, ok := f.headers[deadlineHeader]; ok {
				if dl, ok := transport.ParseDeadline(v); ok {
					inner := cancel
					var cancelDL context.CancelFunc
					base, cancelDL = context.WithDeadline(base, dl)
					cancel = func() { cancelDL(); inner() }
				}
			}
			stream = &ServerStream{core: newStreamCore(f.seq, cw)}
			stream.core.mute = &s.hung
			stream.core.onTeardown = cancel
			s.wg.Add(1)
			go s.dispatchStream(stream, base, f)
		default:
			putFrame(f) // ignore stray frames
		}
	}
}

// worker runs one one-way frame, then parks on the channel to serve more
// until the server closes it.
func (s *Server) worker(f *frame) {
	s.runOneWay(f)
	for f := range s.oneways {
		s.runOneWay(f)
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
// has its connection (items arriving before the handler is scheduled buffer
// into the inbox). The unary interceptor chain wraps the
// stream's whole lifetime with the opening payload — admission control
// parks or sheds the open, tracing spans the stream — and the handler's
// return value goes back as the End frame.
func (s *Server) dispatchStream(st *ServerStream, base context.Context, f *frame) {
	defer s.wg.Done()
	if s.sem != nil {
		// A stream holds one concurrency slot for its lifetime, like the
		// long-poll request it replaces.
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	ctx := &Ctx{Context: base, Method: f.method, Service: s.service, Headers: f.headers}

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
// and recycling of every pooled resource once the reply is on the wire. It
// owns f and f.payload from the moment it is called.
func (s *Server) dispatch(conn net.Conn, cw *connWriter, f *frame) {
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	ctx := &Ctx{Context: context.Background(), Method: f.method, Service: s.service, Headers: f.headers}
	if v, ok := f.headers[deadlineHeader]; ok {
		if dl, ok := transport.ParseDeadline(v); ok {
			var cancel context.CancelFunc
			ctx.Context, cancel = context.WithDeadline(ctx.Context, dl)
			defer cancel()
		}
	}

	var resp []byte
	var err error
	table, _ := s.dispatchTable.Load().(map[string]Handler)
	if h := table[f.method]; h == nil {
		err = Errorf(CodeNotFound, "%s: no such method %q", s.service, f.method)
	} else {
		resp, err = safeCall(h, ctx, f.payload)
	}

	if f.kind == kindOneWay {
		// Fire-and-forget: the full interceptor chain and handler ran, but
		// nothing goes back on the wire. Failures are counted, not replied.
		if err != nil {
			s.onewayErrs.Add(1)
		}
		s.recycle(ctx, f, nil)
		return
	}

	out := getFrame()
	out.seq, out.headers = f.seq, ctx.ReplyHeaders
	if err != nil {
		out.kind = kindError
		out.code = int64(ErrorCode(err))
		var e *Error
		if errors.As(err, &e) {
			out.payload = []byte(e.Msg)
		} else {
			out.payload = []byte(err.Error())
		}
	} else {
		out.kind = kindReply
		out.payload = resp
	}
	if werr := cw.write(out); werr != nil {
		conn.Close()
	}
	// The reply is on the wire (or the conn is dead); the request payload —
	// which the reply may alias (an echo handler returns its input) — and
	// any pooled reply buffer are dead now, and only now.
	s.recycle(ctx, f, out)
}

// recycle returns a dispatch's pooled resources: request payload and frame,
// reply frame, and any PooledReply buffer. (The Ctx itself is not pooled —
// see the Ctx doc comment.)
func (s *Server) recycle(ctx *Ctx, f, out *frame) {
	transport.ReleaseBuf(f.payload)
	putFrame(f)
	if out != nil {
		putFrame(out)
	}
	if ctx.replyBuf != nil {
		transport.ReleaseBuf(ctx.replyBuf)
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
