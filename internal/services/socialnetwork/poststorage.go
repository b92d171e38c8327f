package socialnetwork

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// StorePostReq persists a composed post.
type StorePostReq struct{ Post Post }

// ReadPostReq fetches one post.
type ReadPostReq struct{ ID string }

// ReadPostResp returns the post if found.
type ReadPostResp struct {
	Post  Post
	Found bool
}

// ReadPostsReq batch-fetches posts by ID.
type ReadPostsReq struct{ IDs []string }

// ReadPostsResp returns found posts, preserving request order.
type ReadPostsResp struct{ Posts []Post }

const postCacheTTL = 10 * time.Minute

// registerPostStorage installs the postsStorage service: the system of
// record for posts, with a lookaside cache in front — the memcached/
// MongoDB pair of Figure 4. Reads run through the shared svcutil.ReadPath:
// corrupt cache entries are purged rather than silently refetched on every
// read, and concurrent misses on one hot post (every follower's timeline
// hydrating the same fresh post) collapse into a single store fetch.
func registerPostStorage(srv *rpc.Server, db svcutil.DB, mc svcutil.KV, noCoalesce bool) {
	svcutil.Handle(srv, "Store", func(ctx *rpc.Ctx, req *StorePostReq) (*struct{}, error) {
		p := req.Post
		if p.ID == "" || p.Author == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "postStorage: post needs ID and author")
		}
		body, err := codec.Marshal(p)
		if err != nil {
			return nil, err
		}
		doc := docstore.Doc{
			ID:     p.ID,
			Fields: map[string]string{"author": p.Author},
			Body:   body,
		}
		if err := db.Put(ctx, "posts", doc); err != nil {
			return nil, err
		}
		// Write-through so immediate timeline reads hit the cache.
		mc.Set(ctx, "post:"+p.ID, body, postCacheTTL) //nolint:errcheck // cache fill is best-effort
		return nil, nil
	})

	postPath := &svcutil.ReadPath[Post]{
		MC:         mc,
		TTL:        postCacheTTL,
		NoCoalesce: noCoalesce,
		Decode: func(b []byte) (Post, error) {
			var p Post
			err := codec.Unmarshal(b, &p)
			return p, err
		},
		Fetch: func(ctx context.Context, key string) (Post, []byte, bool, error) {
			id := strings.TrimPrefix(key, "post:")
			doc, found, err := db.Get(ctx, "posts", id)
			if err != nil || !found {
				return Post{}, nil, false, err
			}
			var p Post
			if err := codec.Unmarshal(doc.Body, &p); err != nil {
				return Post{}, nil, false, fmt.Errorf("postStorage: corrupt post %s: %w", id, err)
			}
			return p, doc.Body, true, nil
		},
	}
	readOne := func(ctx *rpc.Ctx, id string) (Post, bool, error) {
		return postPath.Get(ctx, "post:"+id)
	}

	svcutil.Handle(srv, "Read", func(ctx *rpc.Ctx, req *ReadPostReq) (*ReadPostResp, error) {
		p, found, err := readOne(ctx, req.ID)
		if err != nil {
			return nil, err
		}
		return &ReadPostResp{Post: p, Found: found}, nil
	})

	// ReadBatch hydrates a timeline: K posts at once. One MGet replaces K
	// per-key cache RPCs (on a sharded cache, at most one call per shard),
	// and the hits are neither decoded nor copied out of the MGet's reply: a
	// "post:" value is a Post's wire encoding, and []Post on the wire is the
	// count followed by the elements' encodings, so a hit is spliced into the
	// pooled reply as it is — once codec.Valid has confirmed it decodes,
	// which keeps the ReadPath invariant that a corrupt entry is purged and
	// refetched, never served. The reply is byte for byte the typed encoding
	// of ReadPostsResp.
	srv.Handle("ReadBatch", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		keys, err := postKeys(payload)
		if err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "%s.ReadBatch: decode: %v", ctx.Service, err)
		}
		var hits svcutil.Hits
		if len(keys) > 1 {
			// A batch-level failure just skips the optimization.
			hits, _ = mc.MGet(ctx, keys)
			defer hits.Release()
		}
		// The count is written for a full page and corrected below if the
		// store no longer has some of the posts. The reply is sized for the
		// hits; a miss's post grows it.
		size := codec.LenSize(len(keys))
		for _, h := range hits {
			size += len(h.Value)
		}
		reply := codec.AppendLen(transport.AcquireBuf(size), len(keys))
		head, found := len(reply), 0 // the list's elements start at head
		for i, key := range keys {
			if len(hits) > 0 && hits[0].Index == i {
				raw := hits[0].Value
				hits = hits[1:]
				if codec.Valid[Post](raw) == nil {
					reply = append(reply, raw...)
					found++
					continue
				}
				// Corrupt batch entry: purge and take the single-key path,
				// which refetches from the store.
				mc.Delete(ctx, key) //nolint:errcheck
			}
			// Miss: the per-key path keeps coalescing and cache population.
			p, ok, err := postPath.Get(ctx, key)
			if err == nil && ok {
				reply, err = p.AppendTo(reply)
				found++
			}
			if err != nil {
				transport.ReleaseBuf(reply)
				return nil, err
			}
		}
		return ctx.OwnReply(recount(reply, head, found)), nil
	})

	svcutil.Handle(srv, "AuthorPosts", func(ctx *rpc.Ctx, req *InfoReq) (*ReadPostsResp, error) {
		docs, err := db.Find(ctx, "posts", "author", req.Username, 100)
		if err != nil {
			return nil, err
		}
		out := make([]Post, 0, len(docs))
		for _, d := range docs {
			var p Post
			if err := codec.Unmarshal(d.Body, &p); err != nil {
				continue
			}
			out = append(out, p)
		}
		return &ReadPostsResp{Posts: out}, nil
	})
}

// recount rewrites the count that opens list as n — its elements start at
// head, after the count of a list at least as long — moving them up when n
// takes fewer bytes.
func recount(list []byte, head, n int) []byte {
	var count [binary.MaxVarintLen64]byte
	if w := copy(list, codec.AppendLen(count[:0], n)); w < head {
		return append(list[:w], list[head:]...)
	}
	return list
}

// postKeys decodes a ReadPostsReq — on the wire, its IDs: a count, then each
// ID's length and bytes — straight into the cache keys of those IDs, all
// carved from one string, so a batch costs two allocations however many
// posts it names (decoding the IDs and then prefixing each costs two per
// post).
func postKeys(payload []byte) ([]string, error) {
	n, ids, err := codec.DecLen(payload)
	if err != nil {
		return nil, err
	}
	if n > len(ids) { // every ID takes at least its length byte
		return nil, codec.ErrShortBuffer
	}
	buf := transport.AcquireBuf(len(ids) + n*len("post:"))
	defer func() { transport.ReleaseBuf(buf) }()
	rest := ids
	for i := 0; i < n; i++ {
		var l int
		if l, rest, err = codec.DecLen(rest); err != nil {
			return nil, err
		}
		if l > len(rest) {
			return nil, codec.ErrShortBuffer
		}
		buf = append(append(buf, "post:"...), rest[:l]...)
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, codec.ErrTrailingBytes
	}
	all, keys := string(buf), make([]string, n)
	for i := range keys {
		l, after, _ := codec.DecLen(ids) // validated by the pass above
		ids = after[l:]
		width := len("post:") + l
		keys[i], all = all[:width], all[width:]
	}
	return keys, nil
}

// registerReadPost installs the readPost service, the batching layer
// between timelines and post storage (distinct tiers in Figure 4). It adds
// nothing to a batch and takes nothing away, so it relays the wire bytes
// both ways instead of materialising the posts a third time.
func registerReadPost(srv *rpc.Server, storage svcutil.Caller) {
	svcutil.Relay(srv, "Read", storage, "ReadBatch")
}
