// Package svcutil carries the small amount of shared plumbing the
// application services use: typed RPC handler registration (the hand-written
// half of what Thrift would generate) and typed clients for the cache and
// document-store tiers.
package svcutil

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/transport"
)

// Caller is the client surface services use to talk to a downstream tier;
// both *rpc.Client and *lb.Balanced satisfy it. The definition now lives in
// internal/transport, shared by every layer; this alias keeps the services'
// historical import path working.
type Caller = transport.Caller

// RawCaller is a Caller that also runs a caller-built transport.Call through
// its middleware chain — wire bytes in, the pooled reply out — for a tier
// that forwards or splices encodings instead of decoding them. *rpc.Client
// and *lb.Balanced are RawCallers.
type RawCaller interface {
	Caller
	Invoke(ctx context.Context, call *transport.Call) error
}

// Handle registers a typed handler: the payload is decoded into Req, and
// the returned Resp is encoded as the reply. A nil Resp sends an empty
// reply body. The reply is handed to the RPC dispatcher typed (rpc.Ctx.Reply)
// and the connection writer encodes it straight into the reply frame, so a
// typed handler's encode path allocates nothing for registered (codecgen)
// response types.
func Handle[Req, Resp any](srv *rpc.Server, method string, fn func(ctx *rpc.Ctx, req *Req) (*Resp, error)) {
	rpc.HandleTyped(srv, method, func(ctx *rpc.Ctx, req *Req) ([]byte, error) {
		resp, err := fn(ctx, req)
		if err != nil || resp == nil {
			return nil, err
		}
		if _, ok := any(resp).(codec.Message); ok {
			// Registered type: the pointer dispatches straight to its
			// generated marshaler (same bytes as the value encoding, no
			// interface boxing).
			return ctx.Reply(resp)
		}
		// Unregistered type: encode the value, not the pointer — a pointer
		// would take the reflect pointer plan and grow a nil-flag byte.
		return ctx.Reply(*resp)
	})
}

// Relay registers method as a wire relay to downMethod on down: the request
// payload goes out as it came in, and the downstream reply — still in its
// pooled buffer — comes back as this request's reply, released by the
// dispatcher after the reply frame is written (rpc.Ctx.OwnReply). A tier
// whose handler would decode a request only to re-encode it, and decode the
// reply only to re-encode that, registers this instead. The hop runs down's
// whole middleware chain under the request's context, so tracing, deadline
// propagation, retries and hedges see it as they see a typed call, and a
// coded downstream error reaches the caller with its code.
//
// down must be a RawCaller; a Caller that is not is a wiring bug, reported
// at registration.
func Relay(srv *rpc.Server, method string, down Caller, downMethod string) {
	inv, ok := down.(RawCaller)
	if !ok {
		panic(fmt.Sprintf("svcutil: relay %s.%s: %T has no Invoke", srv.Service(), method, down))
	}
	target := down.Target()
	srv.Handle(method, func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		call := transport.AcquireCall(target, downMethod)
		// The connection reads over the request payload once this handler's
		// reply is out, but a hedged attempt that lost the race may still be writing its
		// request then: attempts get a copy that outlives the handler.
		call.Payload = bytes.Clone(payload)
		err := inv.Invoke(ctx, call)
		reply := call.Reply
		transport.ReleaseCall(call)
		if err != nil {
			return nil, err
		}
		return ctx.OwnReply(reply), nil
	})
}

// KV is a typed client for a cache tier exposed via kv.RegisterService.
// It runs in one of two modes: with C set, every call goes to that single
// (possibly load-balanced) backend, the original wrapper behavior; with
// Shards set, keys route through the consistent-hash ring to the owning
// replica set with read-one/write-all semantics and read-repair on
// fallback (see sharded.go). Exactly one of C and Shards should be set. C is
// a RawCaller because MGet reads its reply where it lands.
type KV struct {
	C      RawCaller
	Shards *shard.Router
}

// Get fetches a key; found is false on miss.
func (k KV) Get(ctx context.Context, key string) (value []byte, found bool, err error) {
	if k.Shards != nil {
		return k.shardedGet(ctx, key)
	}
	var resp kv.GetResp
	if err := k.C.Call(ctx, "Get", kv.GetReq{Key: key}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// Set stores a key with a TTL (0 = no expiry).
func (k KV) Set(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	if k.Shards != nil {
		return k.shardedSet(ctx, key, value, ttl)
	}
	return k.C.Call(ctx, "Set", kv.SetReq{Key: key, Value: value, TTLNs: int64(ttl)}, nil)
}

// Delete removes a key (cache invalidation).
func (k KV) Delete(ctx context.Context, key string) error {
	if k.Shards != nil {
		return k.shardedDelete(ctx, key)
	}
	var resp kv.DeleteResp
	return k.C.Call(ctx, "Delete", kv.DeleteReq{Key: key}, &resp)
}

// Incr adjusts a counter and returns the new value.
func (k KV) Incr(ctx context.Context, key string, delta int64) (int64, error) {
	if k.Shards != nil {
		return k.shardedIncr(ctx, key, delta)
	}
	var resp kv.IncrResp
	if err := k.C.Call(ctx, "Incr", kv.IncrReq{Key: key, Delta: delta}, &resp); err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// DB is a typed client for a document-store tier exposed via
// docstore.RegisterService. Like KV it is dual-mode: C for the single
// backend path, Shards for consistent-hash routing with replica sets —
// point ops route by document ID, Find scatters to every shard and merges
// (see sharded.go).
type DB struct {
	C      Caller
	Shards *shard.Router
}

// Put stores a document.
func (d DB) Put(ctx context.Context, collection string, doc docstore.Doc) error {
	if d.Shards != nil {
		return d.shardedPut(ctx, collection, doc)
	}
	return d.C.Call(ctx, "Put", docstore.PutReq{Collection: collection, Doc: doc}, nil)
}

// Get fetches a document by ID.
func (d DB) Get(ctx context.Context, collection, id string) (docstore.Doc, bool, error) {
	if d.Shards != nil {
		return d.shardedGet(ctx, collection, id)
	}
	var resp docstore.GetResp
	if err := d.C.Call(ctx, "Get", docstore.GetReq{Collection: collection, ID: id}, &resp); err != nil {
		return docstore.Doc{}, false, err
	}
	return resp.Doc, resp.Found, nil
}

// Find queries an indexed string field.
func (d DB) Find(ctx context.Context, collection, field, value string, limit int) ([]docstore.Doc, error) {
	if d.Shards != nil {
		return d.shardedFind(ctx, collection, field, value, limit)
	}
	var resp docstore.FindResp
	err := d.C.Call(ctx, "Find", docstore.FindReq{Collection: collection, Field: field, Value: value, Limit: int64(limit)}, &resp)
	return resp.Docs, err
}
