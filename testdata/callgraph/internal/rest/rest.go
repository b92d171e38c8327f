// Package rest is the fixture's front door.
package rest

import (
	"context"

	"cgfixture/internal/transport"
)

// Ctx is a request's context.
type Ctx struct{ context.Context }

// Handler serves one route.
type Handler func(ctx *Ctx, body []byte) (any, error)

// Server is a front door.
type Server struct{ routes map[string]Handler }

// Handle installs a route.
func (s *Server) Handle(pattern string, h Handler) { s.routes[pattern] = h }

// Forward is a route that calls method on to with the decoded body.
func Forward[Req, Resp any](to transport.Caller, method string, out func(*Resp) any) Handler {
	return func(ctx *Ctx, body []byte) (any, error) {
		var req Req
		var resp Resp
		err := to.Call(ctx, method, &req, &resp)
		return out(&resp), err
	}
}
