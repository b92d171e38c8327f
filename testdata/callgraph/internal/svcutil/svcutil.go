// Package svcutil is the fixture's wiring vocabulary.
package svcutil

import (
	"context"

	"cgfixture/internal/core"
	"cgfixture/internal/docstore"
	"cgfixture/internal/kv"
	"cgfixture/internal/mq"
	"cgfixture/internal/rpc"
	"cgfixture/internal/shard"
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

// Name is a tier's service name.
func (st *Stack) Name(tier string) string { return st.Prefix + tier }

// Start defines a logic tier on the App and boots one replica of it.
func (st *Stack) Start(name string, register func(*rpc.Server)) {
	st.App.Define(st.Prefix+name, register)
	st.App.Spawn(st.Prefix + name) //nolint:errcheck
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

// Router is a router of a stateful tier's replica groups.
func (st *Stack) Router(caller, target string) *shard.Router {
	r, _ := st.App.ShardedRPC(st.Name(caller), st.Name(target))
	return r
}

// DB is a typed client of a store tier.
func (st *Stack) DB(caller, target string) DB { return DB{Shards: st.Router(caller, target)} }

// KV is a typed client of a cache tier.
func (st *Stack) KV(caller, target string) KV { return KV{Shards: st.Router(caller, target)} }

// MQ is a typed client of a broker tier.
func (st *Stack) MQ(caller, target string) mq.Bus {
	return mq.NewPartitioned(st.Router(caller, target))
}

// DB is the store's typed client.
type DB struct{ Shards *shard.Router }

// Get reads a document.
func (d DB) Get(ctx context.Context, collection, id string) (docstore.Doc, bool, error) {
	var doc docstore.Doc
	err := d.Shards.Route(id)[0].Call(ctx, "Get", id, &doc)
	return doc, doc.ID != "", err
}

// Put stores a document on every replica of its group.
func (d DB) Put(ctx context.Context, collection string, doc docstore.Doc) error {
	for _, rep := range d.Shards.Route(doc.ID) {
		if err := rep.Call(ctx, "Put", doc, nil); err != nil {
			return err
		}
	}
	return nil
}

// Find reads the documents whose field is value.
func (d DB) Find(ctx context.Context, collection, field, value string) ([]docstore.Doc, error) {
	var docs []docstore.Doc
	err := d.Shards.Route("")[0].Call(ctx, "Find", field, &docs)
	return docs, err
}

// AddNum adds delta to a document's number and returns the sum.
func (d DB) AddNum(ctx context.Context, collection, id, field string, delta int64) (int64, error) {
	var sum int64
	err := d.Shards.Route(id)[0].Call(ctx, "AddNum", field, &sum)
	return sum, err
}

// KV is the cache's typed client.
type KV struct{ Shards *shard.Router }

// Get reads a key.
func (k KV) Get(ctx context.Context, key string) ([]byte, error) {
	var v []byte
	err := k.Shards.Route(key)[0].Call(ctx, "Get", key, &v)
	return v, err
}

// Set writes a key.
func (k KV) Set(ctx context.Context, key string, v []byte) error {
	return k.Shards.Route(key)[0].Call(ctx, "Set", key, nil)
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
