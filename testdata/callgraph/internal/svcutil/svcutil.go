// Package svcutil is the fixture's wiring vocabulary.
package svcutil

import (
	"context"

	"cgfixture/internal/core"
	"cgfixture/internal/docstore"
	"cgfixture/internal/rpc"
	"cgfixture/internal/transport"
)

// Caller calls one tier.
type Caller = transport.Caller

// RawCaller also runs raw calls.
type RawCaller interface {
	Caller
	Invoke(ctx context.Context, call *transport.Call) error
}

// Stack boots an app's tiers under its prefix.
type Stack struct {
	App    *core.App
	Prefix string
}

// Start boots a logic tier.
func (st *Stack) Start(name string, register func(*rpc.Server)) {
	st.App.StartRPC(st.Prefix+name, register) //nolint:errcheck
}

// StartStores boots one store tier per name.
func (st *Stack) StartStores(names ...string) error {
	for _, name := range names {
		if _, err := st.App.StartRPC(st.Prefix+name, func(s *rpc.Server) { docstore.RegisterService(s) }); err != nil {
			return err
		}
	}
	return nil
}

// Caller is a client from one tier to another.
func (st *Stack) Caller(caller, target string) Caller {
	c, _ := st.App.RPC(st.Prefix+caller, st.Prefix+target)
	return c
}

// DB is a typed client of a store tier.
func (st *Stack) DB(caller, target string) DB { return DB{C: st.Caller(caller, target)} }

// DB is the store's typed client.
type DB struct{ C Caller }

// Get reads a document.
func (d DB) Get(ctx context.Context, id string) (bool, error) {
	var found bool
	err := d.C.Call(ctx, "Get", id, &found)
	return found, err
}

// Handle registers a typed handler.
func Handle[Req, Resp any](srv *rpc.Server, method string, fn func(ctx *rpc.Ctx, req *Req) (*Resp, error)) {
	rpc.HandleTyped(srv, method, func(ctx *rpc.Ctx, req *Req) ([]byte, error) {
		_, err := fn(ctx, req)
		return nil, err
	})
}

// Relay registers method as a relay to downMethod on down.
func Relay(srv *rpc.Server, method string, down Caller, downMethod string) {
	inv := down.(RawCaller)
	srv.Handle(method, func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		call := transport.AcquireCall(down.Target(), downMethod)
		return nil, inv.Invoke(ctx, call)
	})
}

// CallBounded calls a degradable downstream.
func CallBounded(ctx context.Context, c Caller, method string, req, resp any) error {
	return c.Call(ctx, method, req, resp)
}
