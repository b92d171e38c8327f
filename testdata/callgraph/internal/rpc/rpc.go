// Package rpc is the fixture's server and client.
package rpc

import (
	"context"

	"cgfixture/internal/transport"
)

// Ctx is a request's context.
type Ctx struct{ context.Context }

// Handler serves one method's raw payload.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Server is one tier instance.
type Server struct {
	service  string
	handlers map[string]Handler
}

// NewServer returns a server for service.
func NewServer(service string) *Server {
	return &Server{service: service, handlers: map[string]Handler{}}
}

// Handle registers a raw handler.
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

// HandleTyped registers a handler that decodes its request.
func HandleTyped[Req any](s *Server, method string, fn func(ctx *Ctx, req *Req) ([]byte, error)) {
	s.Handle(method, func(ctx *Ctx, payload []byte) ([]byte, error) {
		var req Req
		return fn(ctx, &req)
	})
}

// Client calls one target tier.
type Client struct{ target string }

// NewClient returns a client of target.
func NewClient(target string) *Client { return &Client{target: target} }

// Call invokes method.
func (c *Client) Call(ctx context.Context, method string, req, resp any) error { return nil }

// Invoke runs a raw call.
func (c *Client) Invoke(ctx context.Context, call *transport.Call) error { return nil }

// Target is the tier the client calls.
func (c *Client) Target() string { return c.target }
