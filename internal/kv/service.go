package kv

import (
	"time"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Wire messages for the cache's RPC interface.

// GetReq asks for one key.
type GetReq struct{ Key string }

// GetResp returns the value if found.
type GetResp struct {
	Value []byte
	Found bool
}

// SetReq stores a value with a TTL in nanoseconds (0 = no expiry).
type SetReq struct {
	Key   string
	Value []byte
	TTLNs int64
}

// DeleteReq removes one key.
type DeleteReq struct{ Key string }

// DeleteResp reports whether the key existed.
type DeleteResp struct{ Existed bool }

// MGetReq asks for a batch of keys in one round trip — the timeline
// hydration path reads K post entries at once, and per-key RPCs make the
// cache tier's request rate scale with fan-in rather than with requests.
type MGetReq struct{ Keys []string }

// MGetResp returns parallel arrays: Values[i]/Found[i] answer Keys[i]. The
// server writes it without building one, and svcutil.KV.MGet reads it in
// place; this type is its wire layout.
type MGetResp struct {
	Values [][]byte
	Found  []bool
}

// IncrReq adjusts a counter.
type IncrReq struct {
	Key   string
	Delta int64
}

// IncrResp returns the new counter value.
type IncrResp struct{ Value int64 }

// RegisterService exposes cache as an RPC microservice on srv with methods
// Get, MGet, Set, Delete, and Incr — the cache tier the application graphs
// call. Each handler decodes its request on its own stack.
func RegisterService(srv *rpc.Server, cache *Cache) {
	srv.Handle("Get", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req GetReq
		if err := codec.Whole(req.DecodeFrom(payload)); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		v, ok := cache.Get(req.Key)
		return ctx.Reply(&GetResp{Value: v, Found: ok})
	})
	srv.Handle("MGet", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		// An MGetReq is its keys, looked up where they lie in the payload.
		// The values found are held while the reply is sized for them, then
		// written into the pooled reply as an MGetResp: the values, then
		// their found flags.
		if err := codec.Valid[[]string](payload); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		n, keys, _ := codec.DecLen(payload)
		type hit struct {
			v  []byte
			ok bool
		}
		hits, size := make([]hit, 0, 32), 2*codec.LenSize(n)+n
		for i := 0; i < n; i++ {
			var key []byte
			key, keys, _ = codec.DecStringBytes(keys)
			v, ok := cache.Get(string(key)) // Get keeps no key: no copy
			hits = append(hits, hit{v, ok})
			size += codec.LenSize(len(v)) + len(v)
		}
		reply := codec.AppendLen(transport.AcquireBuf(size), n)
		for _, h := range hits {
			reply = codec.AppendBytes(reply, h.v)
		}
		reply = codec.AppendLen(reply, n)
		for _, h := range hits {
			reply = codec.AppendBool(reply, h.ok)
		}
		return ctx.OwnReply(reply), nil
	})
	srv.Handle("Set", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req SetReq
		if err := codec.Whole(req.DecodeFrom(payload)); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		cache.Set(req.Key, req.Value, time.Duration(req.TTLNs))
		return nil, nil
	})
	srv.Handle("Delete", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req DeleteReq
		if err := codec.Whole(req.DecodeFrom(payload)); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		return ctx.Reply(&DeleteResp{Existed: cache.Delete(req.Key)})
	})
	srv.Handle("Incr", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req IncrReq
		if err := codec.Whole(req.DecodeFrom(payload)); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		return ctx.Reply(&IncrResp{Value: cache.Incr(req.Key, req.Delta)})
	})
}
