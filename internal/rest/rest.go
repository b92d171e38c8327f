// Package rest implements the suite's JSON-over-HTTP API layer, the role
// REST plays in the E-commerce and Swarm applications. It reuses the rpc
// Network abstraction so REST services run over real TCP or in-memory
// pipes, and it propagates the same header-based trace context as the RPC
// layer, so traces cross RPC/REST boundaries intact.
//
// HTTP/1 semantics matter to the paper's backpressure results: within one
// connection requests are serialized, so a slow backend stalls the
// connection and queues form ahead of the front-end. The client exposes
// MaxConnsPerHost to reproduce that regime.
package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// deadlineKey is transport.DeadlineHeader in the form net/http stores header
// names, so neither side canonicalises it again on every request.
var deadlineKey = http.CanonicalHeaderKey(transport.DeadlineHeader)

// readBody reads r to EOF into a pooled buffer sized from the declared
// length (-1 when unknown); the caller releases it once the bytes are dead.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length > maxBody {
		return nil, errBodyTooLarge
	}
	buf := transport.AcquireBuf(int(length) + 1)
	if int64(cap(buf)) <= length {
		// A recycled buffer smaller than the body, or a body larger than
		// the pool keeps: one exact allocation instead of regrowth.
		transport.ReleaseBuf(buf)
		buf = make([]byte, 0, length+1)
	}
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
	// ReplyHeaders are returned as HTTP response headers.
	ReplyHeaders map[string]string

	query url.Values // parsed by the first Query call
}

// Header returns a request header value.
func (c *Ctx) Header(key string) string { return c.Request.Header.Get(key) }

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

// SetReplyHeader adds a response header.
func (c *Ctx) SetReplyHeader(key, value string) {
	if c.ReplyHeaders == nil {
		c.ReplyHeaders = make(map[string]string, 4)
	}
	c.ReplyHeaders[key] = value
}

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
	hs           *http.Server
	mu           sync.Mutex
	interceptors []Interceptor
	routes       []*route
	listener     net.Listener
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
	s := &Server{service: service, mux: http.NewServeMux()}
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// Service returns the service name.
func (s *Server) Service() string { return s.service }

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
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(rt, w, r) })
}

func (s *Server) serve(rt *route, w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.ContentLength != 0 { // a request that declares no body has none to read
		var err error
		if body, err = readBody(r.Body, r.ContentLength); err != nil {
			writeError(w, rpc.Errorf(rpc.CodeBadRequest, "read request body: %v", err))
			return
		}
		// Released on return: after the handler, and after the reply — which
		// may alias the body — is encoded.
		defer transport.ReleaseBuf(body)
	}
	ctx := &Ctx{Context: r.Context(), Service: s.service, Request: r}
	if v := r.Header[deadlineKey]; len(v) > 0 {
		if dl, ok := transport.ParseDeadline(v[0]); ok {
			var cancel context.CancelFunc
			ctx.Context, cancel = context.WithDeadline(ctx.Context, dl)
			defer cancel()
		}
	}
	out, err := safeServe(*rt.chain.Load(), ctx, body)
	for k, v := range ctx.ReplyHeaders {
		w.Header().Set(k, v)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if out == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	data, err := codec.AppendMarshalJSON(transport.AcquireBuf(0), out)
	if err != nil {
		transport.ReleaseBuf(data)
		writeError(w, rpc.Errorf(rpc.CodeInternal, "encode response: %v", err))
		return
	}
	// The length is known, so say it: the client sizes its read from it, and
	// net/http need not chunk a reply that outgrows its write buffer.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data) //nolint:errcheck // client disconnects are routine
	transport.ReleaseBuf(data)
}

func safeServe(h Handler, ctx *Ctx, body []byte) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = rpc.Errorf(rpc.CodeInternal, "panic in %s %s: %v", ctx.Service, ctx.Request.URL.Path, r)
		}
	}()
	return h(ctx, body)
}

func writeError(w http.ResponseWriter, err error) {
	code := rpc.ErrorCode(err)
	status := http.StatusInternalServerError
	switch code {
	case rpc.CodeNotFound:
		status = http.StatusNotFound
	case rpc.CodeBadRequest:
		status = http.StatusBadRequest
	case rpc.CodeUnauthorized:
		status = http.StatusUnauthorized
	case rpc.CodeUnavailable:
		status = http.StatusServiceUnavailable
	case rpc.CodeConflict:
		status = http.StatusConflict
	case rpc.CodeDeadline:
		status = http.StatusGatewayTimeout
	case rpc.CodeOverloaded:
		// Admission-control shed: 429 rather than 503 — the replica is
		// healthy, the client should try elsewhere or back off.
		status = http.StatusTooManyRequests
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg := err.Error()
	var e *rpc.Error
	if errors.As(err, &e) {
		msg = e.Msg
	}
	json.NewEncoder(w).Encode(errorBody{Code: code, Error: msg}) //nolint:errcheck
}

// Start listens on addr via network and serves in the background,
// returning the bound address.
func (s *Server) Start(network rpc.Network, addr string) (string, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go s.hs.Serve(l) //nolint:errcheck // exit is signaled via Close
	return l.Addr().String(), nil
}

// Close shuts the server down immediately.
func (s *Server) Close() error {
	return s.hs.Close()
}

// Client issues REST calls to one service. It runs the same
// transport.Middleware chain as the RPC client — composed once at
// construction — so tracing and the resilience layer instrument both
// protocols identically.
type Client struct {
	target string
	base   string // e.g. "http://addr"
	hc     *http.Client
	mws    []transport.Middleware
	invoke transport.Invoker
}

// ClientOption configures a REST client.
type ClientOption func(*Client)

// WithMiddleware appends client middleware (the same chain type the RPC
// client accepts); mws run in registration order, outermost first.
func WithMiddleware(mws ...transport.Middleware) ClientOption {
	return func(c *Client) { c.mws = append(c.mws, mws...) }
}

// NewClient creates a client for the target service at addr, dialing
// through the given network.
func NewClient(network rpc.Network, target, addr string, opts ...ClientOption) *Client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return network.Dial(addr)
		},
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     time.Minute,
	}
	c := &Client{target: target, base: "http://" + addr, hc: &http.Client{Transport: tr}}
	for _, o := range opts {
		o(c)
	}
	c.invoke = transport.Build(c.exchangeCall, c.mws...)
	return c
}

// Target returns the service name this client talks to.
func (c *Client) Target() string { return c.target }

// Do issues method (e.g. "POST") against path, JSON-encoding req (nil for
// no body) and decoding the JSON response into resp (nil to discard). The
// call flows through the middleware chain as a transport.Call whose Method
// is "VERB /path"; the reply body — a pooled buffer — is decoded after the
// chain returns, so hedged or retried attempts never race on resp, and
// released once decoded (neither JSON decoder aliases its input).
func (c *Client) Do(ctx context.Context, method, path string, req, resp any) error {
	var payload []byte
	if req != nil {
		var err error
		payload, err = codec.AppendMarshalJSON(nil, req)
		if err != nil {
			return fmt.Errorf("rest: marshal %s %s: %w", method, path, err)
		}
	}
	call := transport.AcquireCall(c.target, method+" "+path)
	call.Payload = payload
	err := c.invoke(ctx, call)
	if err == nil && resp != nil && len(call.Reply) > 0 {
		if derr := codec.UnmarshalJSON(call.Reply, resp); derr != nil {
			err = fmt.Errorf("rest: decode %s %s: %w", method, path, derr)
		}
	}
	transport.ReleaseBuf(call.Reply)
	transport.ReleaseCall(call)
	return err
}

// exchangeCall is the terminal invoker: it stamps the deadline header and
// performs the HTTP exchange, leaving the raw reply body in call.Reply.
func (c *Client) exchangeCall(ctx context.Context, call *transport.Call) error {
	method, path, _ := strings.Cut(call.Method, " ")
	var body io.Reader
	if call.Payload != nil {
		body = bytes.NewReader(call.Payload)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if call.Payload != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		hr.Header[deadlineKey] = []string{transport.EncodeDeadline(dl)}
	}
	for k, v := range call.Headers {
		hr.Header.Set(k, v)
	}
	res, err := c.hc.Do(hr)
	if err != nil {
		if ctx.Err() != nil {
			return transport.WrapCode(transport.CodeDeadline, ctx.Err(), "rest: %s %s: %v", method, c.target+path, ctx.Err())
		}
		return fmt.Errorf("rest: %s %s: %w", method, c.target+path, err)
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusNoContent {
		call.Reply = nil
		return nil
	}
	data, err := readBody(res.Body, res.ContentLength)
	if errors.Is(err, errBodyTooLarge) {
		return rpc.Errorf(rpc.CodeInternal, "%s %s: reply %v", method, path, err)
	}
	if err != nil {
		return err
	}
	if res.StatusCode >= 400 {
		defer transport.ReleaseBuf(data)
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return &rpc.Error{Code: eb.Code, Msg: eb.Error}
		}
		return rpc.Errorf(rpc.CodeInternal, "%s %s: HTTP %d", method, path, res.StatusCode)
	}
	call.Reply = data // pooled; Do releases it once decoded
	return nil
}

// Close releases idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// DecodeJSON decodes a request body into v, returning a coded error on
// malformed input; handlers use it as their first line.
func DecodeJSON(body []byte, v any) error {
	if err := codec.UnmarshalJSON(body, v); err != nil {
		return rpc.Errorf(rpc.CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}
