package docstore

import (
	"dsb/internal/codec"
	"dsb/internal/rpc"
)

// Wire messages for the store's RPC interface.

// PutReq stores a document in a collection.
type PutReq struct {
	Collection string
	Doc        Doc
}

// GetReq fetches a document by ID.
type GetReq struct {
	Collection string
	ID         string
}

// GetResp returns the document if found.
type GetResp struct {
	Doc   Doc
	Found bool
}

// FindReq queries an indexed string field.
type FindReq struct {
	Collection string
	Field      string
	Value      string
	Limit      int64
}

// FindRangeReq queries an indexed numeric field.
type FindRangeReq struct {
	Collection string
	Field      string
	Min, Max   int64
	Limit      int64
}

// FindResp returns matching documents.
type FindResp struct{ Docs []Doc }

// DeleteReq removes a document.
type DeleteReq struct {
	Collection string
	ID         string
}

// DeleteResp reports whether the document existed.
type DeleteResp struct{ Existed bool }

// ListPrependReq atomically prepends Value to the []string body of a
// document, creating it if absent and capping the list at Cap entries
// (<=0 means unbounded). The write fan-out path uses this so concurrent
// timeline pushes never lose each other's entries.
type ListPrependReq struct {
	Collection string
	ID         string
	Value      string
	Cap        int64
	// Unique skips the prepend when Value is already present — the
	// idempotency backstop async delivery pipelines write through.
	Unique bool
}

// ListPrependResp returns the list length after the prepend.
type ListPrependResp struct{ Len int64 }

// RegisterService exposes store as an RPC microservice with methods Put,
// Get, Find, FindRange, ListPrepend, and Delete — the "mongodb" tier in
// the application graphs.
func RegisterService(srv *rpc.Server, store *Store) {
	srv.Handle("Put", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req PutReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		// req.Doc was decoded just now and nothing else refers to it.
		return nil, store.Collection(req.Collection).put(req.Doc)
	})
	srv.Handle("Get", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req GetReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		d, ok := store.Collection(req.Collection).view(req.ID)
		return ctx.PooledReply(&GetResp{Doc: d, Found: ok})
	})
	srv.Handle("Find", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req FindReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		docs := store.Collection(req.Collection).Find(req.Field, req.Value, int(req.Limit))
		return ctx.PooledReply(&FindResp{Docs: docs})
	})
	srv.Handle("FindRange", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req FindRangeReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		docs := store.Collection(req.Collection).FindRange(req.Field, req.Min, req.Max, int(req.Limit))
		return ctx.PooledReply(&FindResp{Docs: docs})
	})
	srv.Handle("ListPrepend", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req ListPrependReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		n, err := store.Collection(req.Collection).listPrepend(req.ID, req.Value, int(req.Cap), req.Unique)
		if err != nil {
			return nil, err
		}
		return ctx.PooledReply(&ListPrependResp{Len: int64(n)})
	})
	srv.Handle("Delete", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req DeleteReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		existed, err := store.Collection(req.Collection).Delete(req.ID)
		if err != nil {
			return nil, err
		}
		return ctx.PooledReply(&DeleteResp{Existed: existed})
	})
}
