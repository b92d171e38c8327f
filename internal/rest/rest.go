// Package rest implements the suite's JSON-over-HTTP API layer, the role
// REST plays at the applications' front doors. It reuses the rpc Network
// abstraction so REST services run over real TCP or in-memory connections,
// and it propagates the same call header as the RPC layer — the deadline and
// the caller's span, here as the Dsb-Deadline, Dsb-Trace and Dsb-Span
// headers — so traces cross RPC/REST boundaries intact.
//
// It speaks HTTP/1.1 through net/http's parsers (http.ReadRequest,
// http.ReadResponse) and router (http.ServeMux), not through its Server or
// Transport: as on an rpc hop, one exchange runs on one connection at a time.
// The client keeps its connections on rpc's ConnStack, writes a request in
// one Write and reads the response on the calling goroutine; the server
// answers a connection's requests in turn on that connection's goroutine,
// each response, Content-Length included, in one Write. A handler's context
// is context.Background() plus the deadline the caller propagated, as in rpc,
// so the hops beneath a front door arm no cancellation watcher. Within one
// connection requests are serialized, so a slow backend stalls the
// connection and queues form ahead of the front end — the HTTP/1 semantics
// the paper's backpressure results rest on.
package rest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// maxBody bounds a request or reply body. A body past it is refused with a
// coded error: cutting it short would hand the JSON decoder a prefix, and
// the caller a syntax error about a document that was in fact well formed.
const maxBody = 16 << 20

var errBodyTooLarge = fmt.Errorf("body exceeds the %d-byte limit", maxBody)

// maxHeaderBytes bounds the start line and headers of a message, as net/http
// does by default: the server answers a longer request 431 and the client
// refuses a longer response, neither reading on. A connection's buffered
// reader reads ahead by up to readBufSize, which the limit allows for.
const (
	maxHeaderBytes = 1 << 20
	readBufSize    = 4 << 10
)

// The call header as HTTP headers, in the form net/http stores their names,
// so neither side canonicalises them on every request: the deadline in
// decimal unix nanoseconds, the caller's trace and span IDs in hex. This is
// the one place either becomes text.
const (
	deadlineKey = "Dsb-Deadline"
	traceKey    = "Dsb-Trace"
	spanKey     = "Dsb-Span"
)

// readBody reads r to EOF into a pooled buffer sized from the declared
// length (-1 when unknown); the caller releases it once the bytes are dead.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length > maxBody {
		return nil, errBodyTooLarge
	}
	buf := transport.AcquireBuf(int(length) + 1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBody {
			err = errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			transport.ReleaseBuf(buf)
			return nil, err
		}
	}
}

// Ctx is the per-request server context for REST handlers.
type Ctx struct {
	context.Context
	// Service is the serving microservice's name.
	Service string
	// Request is the underlying HTTP request (path params, query).
	Request *http.Request
	// Trace is the caller's span, which this request's work is a child of;
	// zero when the caller sent none, or a malformed or zero ID.
	Trace transport.SpanContext

	query url.Values // parsed by the first Query call
	reply []byte     // the pooled body handed over with OwnReply
}

// PathValue returns a path wildcard value (Go 1.22 mux patterns).
func (c *Ctx) PathValue(name string) string { return c.Request.PathValue(name) }

// Query returns a query parameter; the URL's query is parsed once per
// request, not once per parameter.
func (c *Ctx) Query(name string) string {
	if c.query == nil {
		c.query = c.Request.URL.Query()
	}
	return c.query.Get(name)
}

// OwnReply is rpc.Ctx.OwnReply for a REST handler: it makes buf — a pooled
// buffer holding an encoded JSON body, which the handler owns outright — this
// request's reply, and returns the value for the handler to return. The
// server writes buf as it is and recycles it; the handler must not touch it
// again.
func (c *Ctx) OwnReply(buf []byte) any {
	c.reply = buf
	return ownedReply{}
}

// ownedReply is what a handler returns for a body handed over with OwnReply.
type ownedReply struct{}

// Handler consumes the request body (raw bytes; most handlers unmarshal
// JSON via DecodeJSON) and returns a value to encode as JSON. The body is
// pooled: it must not be retained past the handler's return (returning it,
// or something aliasing it, as the value to encode is fine — the server
// encodes the reply before recycling the request).
type Handler func(ctx *Ctx, body []byte) (any, error)

// Interceptor wraps server-side handling.
type Interceptor func(ctx *Ctx, body []byte, next Handler) (any, error)

// errorBody is the JSON error envelope.
type errorBody struct {
	Code  int    `json:"code"`
	Error string `json:"error"`
}

// Server is a REST microservice server.
type Server struct {
	service      string
	mux          *http.ServeMux
	acc          rpc.Acceptor
	mu           sync.Mutex
	interceptors []Interceptor
	routes       []*route
}

// route is one registered handler and, in chain, that handler wrapped in
// the server's interceptors. Handle and Use republish chain whole, so a
// request loads it without taking the server's lock or building closures.
type route struct {
	handler Handler
	chain   atomic.Pointer[Handler]
}

func (rt *route) compose(interceptors []Interceptor) {
	wrapped := rt.handler
	for i := len(interceptors) - 1; i >= 0; i-- {
		ic, next := interceptors[i], wrapped
		wrapped = func(ctx *Ctx, body []byte) (any, error) {
			return ic(ctx, body, next)
		}
	}
	rt.chain.Store(&wrapped)
}

// NewServer creates a REST server for the named service.
func NewServer(service string) *Server {
	return &Server{service: service, mux: http.NewServeMux()}
}

// Use appends a server interceptor; it wraps every route, including ones
// registered earlier.
func (s *Server) Use(i Interceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors = append(s.interceptors, i)
	for _, rt := range s.routes {
		rt.compose(s.interceptors)
	}
}

// Handle registers a handler for a mux pattern such as "POST /orders" or
// "GET /catalogue/{id}".
func (s *Server) Handle(pattern string, h Handler) {
	rt := &route{handler: h}
	s.mu.Lock()
	s.routes = append(s.routes, rt)
	rt.compose(s.interceptors)
	s.mu.Unlock()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(rt, w.(*response), r) })
}

func (s *Server) serve(rt *route, w *response, r *http.Request) {
	var body []byte
	if r.ContentLength != 0 { // a request that declares no body has none to read
		var err error
		if body, err = readBody(r.Body, r.ContentLength); err != nil {
			w.fail(rpc.Errorf(rpc.CodeBadRequest, "read request body: %v", err))
			return
		}
		w.drained = true
		// Released on return: after the handler, and after the reply — which
		// may alias the body — is encoded.
		defer transport.ReleaseBuf(body)
	}
	ctx := &Ctx{Context: context.Background(), Service: s.service, Request: r, Trace: parseTrace(r.Header)}
	if dl, ok := parseDeadline(r.Header); ok {
		var cancel context.CancelFunc
		ctx.Context, cancel = context.WithDeadline(ctx.Context, dl)
		defer cancel()
	}
	out, err := safeServe(*rt.chain.Load(), ctx, body)
	if _, own := out.(ownedReply); own && err == nil {
		w.json, w.body = true, ctx.reply
		return
	}
	transport.ReleaseBuf(ctx.reply)
	switch {
	case err != nil:
		w.fail(err)
	case out == nil:
		w.json, w.status = true, http.StatusNoContent
	default:
		// A JSON reply's size is not known before it is encoded.
		data, err := codec.AppendMarshalJSON(transport.AcquireBuf(0), out)
		if err != nil {
			transport.ReleaseBuf(data)
			w.fail(rpc.Errorf(rpc.CodeInternal, "encode response: %v", err))
			return
		}
		w.json, w.body = true, data
	}
}

// parseDeadline reads the caller's deadline from h, written as decimal unix
// nanoseconds; ok is false when it is missing or malformed.
func parseDeadline(h http.Header) (dl time.Time, ok bool) {
	v := h[deadlineKey]
	if len(v) == 0 {
		return time.Time{}, false
	}
	ns, err := strconv.ParseInt(v[0], 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// parseTrace reads the caller's span from h: zero unless both IDs are
// nonzero hex numbers that fit 64 bits.
func parseTrace(h http.Header) transport.SpanContext {
	t, s := h[traceKey], h[spanKey]
	if len(t) == 0 || len(s) == 0 {
		return transport.SpanContext{}
	}
	tid, err1 := strconv.ParseUint(t[0], 16, 64)
	sid, err2 := strconv.ParseUint(s[0], 16, 64)
	if err1 != nil || err2 != nil || tid == 0 || sid == 0 {
		return transport.SpanContext{}
	}
	return transport.SpanContext{TraceID: transport.TraceID(tid), SpanID: transport.SpanID(sid)}
}

func safeServe(h Handler, ctx *Ctx, body []byte) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = rpc.Errorf(rpc.CodeInternal, "panic in %s %s: %v", ctx.Service, ctx.Request.URL.Path, r)
		}
	}()
	return h(ctx, body)
}

// Start listens on addr via network and serves in the background,
// returning the bound address.
func (s *Server) Start(network rpc.Network, addr string) (string, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return "", err
	}
	go s.acc.Serve(l, s.serveConn) //nolint:errcheck // exit is signaled via Close
	return l.Addr().String(), nil
}

// Close stops accepting, closes every connection — an idle keep-alive under
// its parked read included — and waits for the requests in flight.
func (s *Server) Close() error {
	s.acc.Shut()
	s.acc.Wait()
	return nil
}

// serveConn reads, routes and answers one connection's requests in turn.
func (s *Server) serveConn(nc net.Conn) {
	c := &serverConn{nc: nc, lim: io.LimitedReader{R: nc}}
	c.br = bufio.NewReaderSize(&c.lim, readBufSize)
	for c.next(s) {
	}
}

// serverConn is one accepted connection, reused request after request.
type serverConn struct {
	nc   net.Conn
	lim  io.LimitedReader // what the start line and headers may still take
	br   *bufio.Reader
	resp response
	out  bytes.Buffer // the response on its way out
}

// next answers one request and reports whether the connection carries
// another.
func (c *serverConn) next(s *Server) bool {
	c.lim.N = maxHeaderBytes + readBufSize
	req, err := http.ReadRequest(c.br)
	switch {
	case err == io.EOF:
		return false // the peer closed between requests
	case err != nil && c.lim.N <= 0:
		return c.fail(http.StatusRequestHeaderFieldsTooLarge)
	case err != nil:
		return c.fail(http.StatusBadRequest)
	}
	c.lim.N = math.MaxInt64 // a body is bounded where it is read (maxBody)
	if req.ContentLength != 0 && req.ProtoAtLeast(1, 1) && strings.EqualFold(req.Header.Get("Expect"), "100-continue") {
		io.WriteString(c.nc, "HTTP/1.1 100 Continue\r\n\r\n") //nolint:errcheck // a dead connection fails the read
	}
	s.mux.ServeHTTP(&c.resp, req)
	c.resp.coded(req)
	// Body bytes left unread would stand in front of the next request, and
	// an HTTP/1.0 client expects the connection to end with the response.
	keep := (req.Body == http.NoBody || c.resp.drained) && !req.Close && req.ProtoAtLeast(1, 1)
	return c.write(req.Method == http.MethodHead, !keep) == nil && keep
}

// fail answers a request that could not be read with status, and ends the
// connection.
func (c *serverConn) fail(status int) bool {
	http.Error(&c.resp, strconv.Itoa(status)+" "+http.StatusText(status), status)
	c.write(false, true) //nolint:errcheck // the connection ends either way
	return false
}

// ownHeaders are the headers write sets itself.
var ownHeaders = map[string]bool{"Content-Length": true, "Connection": true, "Transfer-Encoding": true}

// write puts the response on the connection in one Write — status line,
// headers, the Content-Length of a status that has a body, and the body,
// which a HEAD response only announces — and readies it for the next one.
func (c *serverConn) write(head, closing bool) error {
	r, b := &c.resp, &c.out
	status := r.status
	if status == 0 {
		status = http.StatusOK
	}
	b.WriteString("HTTP/1.1 ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(status), 10))
	b.WriteByte(' ')
	b.WriteString(http.StatusText(status))
	b.WriteString("\r\n")
	if r.json {
		b.WriteString("Content-Type: application/json\r\n")
	}
	r.header.WriteSubset(b, ownHeaders) //nolint:errcheck // a bytes.Buffer does not fail
	bodyless := status < http.StatusOK || status == http.StatusNoContent || status == http.StatusNotModified
	if !bodyless {
		b.WriteString("Content-Length: ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(len(r.body)), 10))
		b.WriteString("\r\n")
	}
	if closing {
		b.WriteString("Connection: close\r\n")
	}
	b.WriteString("\r\n")
	if !head && !bodyless {
		b.Write(r.body)
	}
	_, err := c.nc.Write(b.Bytes())
	if b.Reset(); b.Cap() > 64<<10 {
		*b = bytes.Buffer{} // one large reply does not pin memory on an idle connection
	}
	transport.ReleaseBuf(r.body)
	r.status, r.json, r.drained, r.body = 0, false, false, nil
	clear(r.header)
	return err
}

// response collects what a handler — or the mux, for its own 404s, 405s and
// redirects — answers, for the connection to write out whole.
type response struct {
	status  int
	header  http.Header // made the first time it is asked for
	json    bool        // Content-Type: application/json
	drained bool        // the request's body was read to its end
	body    []byte      // pooled
}

func (r *response) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

func (r *response) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *response) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.body == nil {
		r.body = transport.AcquireBuf(len(p))
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

// coded turns the mux's own plain-text answer to a request no route takes —
// 404 for a path nothing serves, 405 for a method its routes do not — into
// the JSON envelope every other failure goes back in, CodeNotFound and
// CodeBadRequest, so a client reads a missing route as the caller's fault,
// not the server's. The status and the mux's Allow header stay.
func (r *response) coded(req *http.Request) {
	status := r.status
	if r.json || status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		return
	}
	code, allow := rpc.CodeNotFound, r.header.Get("Allow")
	if status == http.StatusMethodNotAllowed {
		code = rpc.CodeBadRequest
	}
	clear(r.header)
	if allow != "" {
		r.header.Set("Allow", allow)
	}
	transport.ReleaseBuf(r.body)
	r.fail(rpc.Errorf(code, "%s %s: %s", req.Method, req.URL.Path, http.StatusText(status)))
	r.status = status
}

// statusOf is the HTTP status an error code is answered with, 500 for the
// rest. An admission shed is 429, not 503: the replica is healthy, and the
// client should try elsewhere or back off.
var statusOf = map[int]int{
	rpc.CodeNotFound: http.StatusNotFound, rpc.CodeBadRequest: http.StatusBadRequest,
	rpc.CodeUnauthorized: http.StatusUnauthorized, rpc.CodeUnavailable: http.StatusServiceUnavailable,
	rpc.CodeConflict: http.StatusConflict, rpc.CodeDeadline: http.StatusGatewayTimeout,
	rpc.CodeOverloaded: http.StatusTooManyRequests,
}

// fail answers err: its code as the HTTP status, and the JSON envelope the
// client turns back into the coded error.
func (r *response) fail(err error) {
	code := rpc.ErrorCode(err)
	msg := err.Error()
	var e *rpc.Error
	if errors.As(err, &e) {
		msg = e.Msg
	}
	status, ok := statusOf[code]
	if !ok {
		status = http.StatusInternalServerError
	}
	data, _ := json.Marshal(errorBody{Code: code, Error: msg}) // an int and a string always encode
	r.status, r.json = status, true
	r.body = append(append(transport.AcquireBuf(len(data)+1), data...), '\n')
}

// DecodeJSON decodes a request body into v, returning a coded error on
// malformed input; handlers use it as their first line.
func DecodeJSON(body []byte, v any) error {
	if err := codec.UnmarshalJSON(body, v); err != nil {
		return rpc.Errorf(rpc.CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}

// Forward is the handler of a route whose JSON body is the RPC request it
// becomes: it decodes the body into a Req, calls method on to, and answers
// with out of the response, or with the whole response when out is nil.
func Forward[Req, Resp any](to transport.Caller, method string, out func(*Resp) any) Handler {
	return func(ctx *Ctx, body []byte) (any, error) {
		var req Req
		if err := DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp Resp
		if err := to.Call(ctx, method, req, &resp); err != nil {
			return nil, err
		}
		if out == nil {
			return resp, nil
		}
		return out(&resp), nil
	}
}
