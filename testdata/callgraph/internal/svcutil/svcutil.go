// Package svcutil is the fixture's wiring vocabulary.
package svcutil

import (
	"context"

	"cgfixture/internal/core"
	"cgfixture/internal/docstore"
	"cgfixture/internal/kv"
	"cgfixture/internal/mq"
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

// StartCaches boots one cache tier per name.
func (st *Stack) StartCaches(names ...string) error {
	for _, name := range names {
		if _, err := st.App.StartRPC(st.Prefix+name, func(s *rpc.Server) { kv.RegisterService(s) }); err != nil {
			return err
		}
	}
	return nil
}

// StartBroker boots a broker tier.
func (st *Stack) StartBroker(name string) {
	st.App.StartRPC(st.Prefix+name, func(s *rpc.Server) { mq.RegisterService(s) }) //nolint:errcheck
}

// Caller is a client from one tier to another.
func (st *Stack) Caller(caller, target string) Caller {
	c, _ := st.App.RPC(st.Prefix+caller, st.Prefix+target)
	return c
}

// DB is a typed client of a store tier.
func (st *Stack) DB(caller, target string) DB { return DB{C: st.Caller(caller, target)} }

// KV is a typed client of a cache tier.
func (st *Stack) KV(caller, target string) KV { return KV{C: st.Caller(caller, target)} }

// MQ is a typed client of a broker tier.
func (st *Stack) MQ(caller, target string) mq.Bus { return mq.Client{C: st.Caller(caller, target)} }

// DB is the store's typed client.
type DB struct{ C Caller }

// Get reads a document.
func (d DB) Get(ctx context.Context, collection, id string) (docstore.Doc, bool, error) {
	var doc docstore.Doc
	err := d.C.Call(ctx, "Get", id, &doc)
	return doc, doc.ID != "", err
}

// Put stores a document.
func (d DB) Put(ctx context.Context, collection string, doc docstore.Doc) error {
	return d.C.Call(ctx, "Put", doc, nil)
}

// Find reads the documents whose field is value.
func (d DB) Find(ctx context.Context, collection, field, value string) ([]docstore.Doc, error) {
	var docs []docstore.Doc
	err := d.C.Call(ctx, "Find", field, &docs)
	return docs, err
}

// AddNum adds delta to a document's number and returns the sum.
func (d DB) AddNum(ctx context.Context, collection, id, field string, delta int64) (int64, error) {
	var sum int64
	err := d.C.Call(ctx, "AddNum", field, &sum)
	return sum, err
}

// KV is the cache's typed client.
type KV struct{ C Caller }

// Get reads a key.
func (k KV) Get(ctx context.Context, key string) ([]byte, error) {
	var v []byte
	err := k.C.Call(ctx, "Get", key, &v)
	return v, err
}

// Set writes a key.
func (k KV) Set(ctx context.Context, key string, v []byte) error {
	return k.C.Call(ctx, "Set", key, nil)
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
