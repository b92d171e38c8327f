package docstore

import (
	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
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

// FindResp returns matching documents.
type FindResp struct{ Docs []Doc }

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

// ListPrependResp returns the list length after the prepend, and whether
// Value went in: always, unless Unique found it already listed.
type ListPrependResp struct {
	Len      int64
	Inserted bool
}

// AddNumReq atomically adds Delta to a numeric field of a document unless
// the sum would fall below Floor, creating a missing document when Create
// is set (see Collection.AddNum).
type AddNumReq struct {
	Collection, ID, Field string
	Delta, Floor          int64
	Create                bool
}

// AddNumResp is the field's value after the call, and what AddNum reports.
type AddNumResp struct {
	Value     int64
	Found, OK bool
}

// RegisterService exposes store as an RPC microservice with methods Put,
// Get, Find, ListPrepend and AddNum — the "mongodb" tier in the
// application graphs. Documents cross it in wire form: Put validates and
// stores the request's Doc bytes, and the reads append stored bytes to a
// pooled reply sized for them, so no handler builds a Doc. Only Put,
// ListPrepend and a creating AddNum create a collection; asking about a name
// nobody has written leaves nothing behind.
func RegisterService(srv *rpc.Server, store *Store) {
	srv.Handle("Put", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		// A PutReq is the collection name, then the Doc.
		req := reader{b: payload}
		name := req.str()
		if req.bad {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "decode: malformed collection name")
		}
		return nil, store.Collection(string(name)).putWire(req.b)
	})
	rpc.HandleTyped(srv, "Get", func(ctx *rpc.Ctx, req *GetReq) ([]byte, error) {
		// A GetResp is the Doc, then Found; a miss carries the empty Doc.
		enc, found := store.collection(req.Collection, false).encoded(req.ID)
		if !found {
			enc = []byte{0, 0, 0, 0}
		}
		reply := append(transport.AcquireBuf(len(enc)+1), enc...)
		return ctx.OwnReply(codec.AppendBool(reply, found)), nil
	})
	rpc.HandleTyped(srv, "Find", func(ctx *rpc.Ctx, req *FindReq) ([]byte, error) {
		c := store.collection(req.Collection, false)
		return ctx.OwnReply(c.find(req.Field, req.Value, int(req.Limit))), nil
	})
	rpc.HandleTyped(srv, "ListPrepend", func(ctx *rpc.Ctx, req *ListPrependReq) ([]byte, error) {
		n, inserted, err := store.Collection(req.Collection).listPrepend(req.ID, req.Value, int(req.Cap), req.Unique)
		if err != nil {
			return nil, err
		}
		return ctx.Reply(&ListPrependResp{Len: int64(n), Inserted: inserted})
	})
	rpc.HandleTyped(srv, "AddNum", func(ctx *rpc.Ctx, req *AddNumReq) ([]byte, error) {
		c := store.collection(req.Collection, req.Create)
		v, found, ok := c.AddNum(req.ID, req.Field, req.Delta, req.Floor, req.Create)
		return ctx.Reply(&AddNumResp{Value: v, Found: found, OK: ok})
	})
}
