package rest

import (
	"bufio"
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

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Client issues REST calls to one service. It runs the same
// transport.Middleware chain as the RPC client — composed once at
// construction — so tracing and the resilience layer instrument both
// protocols identically, and it keeps its connections on the same stack
// (rpc.ConnStack): one exchange per connection, read on the calling
// goroutine.
type Client struct {
	target string
	host   string // the Host header: the address dialed
	mws    []transport.Middleware
	invoke transport.Invoker
	stack  *rpc.ConnStack[clientConn]
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
	c := &Client{target: target, host: addr, stack: rpc.NewConnStack(network, "rest", target, addr, newClientConn)}
	for _, o := range opts {
		o(c)
	}
	c.invoke = transport.Build(c.exchangeCall, c.mws...)
	return c
}

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

// exchangeCall is the terminal invoker: one HTTP exchange on a checked-out
// connection, the request in one Write, the raw reply body left in
// call.Reply.
func (c *Client) exchangeCall(ctx context.Context, call *transport.Call) error {
	method, path, _ := strings.Cut(call.Method, " ")
	req, err := c.appendRequest(ctx, transport.AcquireBuf(len(call.Payload)+256), method, path, call)
	if err != nil {
		transport.ReleaseBuf(req)
		return fmt.Errorf("rest: %s %s: %w", method, c.target+path, err)
	}
	cn, err := c.stack.Send(func(cn *rpc.Conn[clientConn]) error {
		_, err := cn.NC.Write(req)
		return err
	})
	transport.ReleaseBuf(req)
	if err != nil {
		return err
	}
	return c.stack.Await(ctx, cn, call.Method, func(cn *rpc.Conn[clientConn]) (bool, error) {
		return cn.State.readResponse(method, call)
	})
}

// targetChars are the characters a request-target may hold as they are.
const targetChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~/!$&'()*+,;=:@?"

// appendRequest appends call's request as it goes on the wire: the request
// line with the request-target net/http would send for path — its URL's
// RequestURI, so a space in a path segment goes out as %20 — then Host, the
// body's type and length, the propagated deadline, call's trace pair and the
// body.
func (c *Client) appendRequest(ctx context.Context, b []byte, method, path string, call *transport.Call) ([]byte, error) {
	target := path
	if !strings.HasPrefix(path, "/") || strings.Trim(path, targetChars) != "" {
		u, err := url.Parse("http://" + c.host + path)
		if err != nil {
			return b, err
		}
		target = u.RequestURI()
	}
	b = append(append(append(append(b, method...), ' '), target...), " HTTP/1.1\r\nHost: "...)
	b = append(append(b, c.host...), "\r\n"...)
	if call.Payload != nil {
		b = strconv.AppendInt(append(b, "Content-Type: application/json\r\nContent-Length: "...), int64(len(call.Payload)), 10)
		b = append(b, "\r\n"...)
	}
	if dl, ok := ctx.Deadline(); ok {
		b = strconv.AppendInt(append(append(b, deadlineKey...), ": "...), dl.UnixNano(), 10)
		b = append(b, "\r\n"...)
	}
	if call.Trace.Valid() {
		b = strconv.AppendUint(append(b, traceKey+": "...), uint64(call.Trace.TraceID), 16)
		b = strconv.AppendUint(append(b, "\r\n"+spanKey+": "...), uint64(call.Trace.SpanID), 16)
		b = append(b, "\r\n"...)
	}
	return append(append(b, "\r\n"...), call.Payload...), nil
}

// clientConn is a client connection's read side: the response parser's
// buffered reader over the connection, behind the header bound.
type clientConn struct {
	lim *io.LimitedReader
	br  *bufio.Reader
}

func newClientConn(nc net.Conn) clientConn {
	lim := &io.LimitedReader{R: nc}
	return clientConn{lim: lim, br: bufio.NewReaderSize(lim, readBufSize)}
}

// headRequest tells http.ReadResponse that the response it reads answers a
// HEAD, which has no body whatever its Content-Length says.
var headRequest = &http.Request{Method: http.MethodHead}

// readResponse reads the response to the request just written — past any
// interim 1xx — leaving its body in call.Reply, and reports whether the
// connection can carry another request. An error status is the coded error
// its JSON envelope names.
func (cc clientConn) readResponse(method string, call *transport.Call) (bool, error) {
	var asked *http.Request
	if method == http.MethodHead {
		asked = headRequest
	}
	cc.lim.N = maxHeaderBytes + readBufSize
	res, err := http.ReadResponse(cc.br, asked)
	for err == nil && res.StatusCode < http.StatusOK && res.StatusCode != http.StatusSwitchingProtocols {
		res, err = http.ReadResponse(cc.br, asked)
	}
	if err != nil && cc.lim.N <= 0 {
		return false, rpc.Errorf(rpc.CodeInternal, "%s: response header exceeds %d bytes", call.Method, maxHeaderBytes)
	}
	if err != nil {
		return false, err
	}
	cc.lim.N = math.MaxInt64 // a body is bounded where it is read (maxBody)
	data, err := readBody(res.Body, res.ContentLength)
	if errors.Is(err, errBodyTooLarge) {
		return false, rpc.Errorf(rpc.CodeInternal, "%s: reply %v", call.Method, err)
	}
	if err != nil {
		return false, err
	}
	if res.StatusCode < http.StatusBadRequest {
		call.Reply = data // pooled; Do releases it once decoded
		return !res.Close, nil
	}
	defer transport.ReleaseBuf(data)
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return !res.Close, &rpc.Error{Code: eb.Code, Msg: eb.Error}
	}
	return !res.Close, rpc.Errorf(rpc.CodeInternal, "%s: HTTP %d", call.Method, res.StatusCode)
}

// Close closes every connection; calls in flight fail at their read.
func (c *Client) Close() error {
	c.stack.Close()
	return nil
}
