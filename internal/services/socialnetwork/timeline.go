package socialnetwork

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"dsb/internal/codec"
	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// AppendTimelineReq broadcasts a new post to its audience.
type AppendTimelineReq struct {
	Author string
	PostID string
	Ts     int64
}

// ReadTimelineReq fetches a user's home timeline.
type ReadTimelineReq struct {
	User  string
	Limit int64
}

// ReadTimelineResp returns posts, newest first, with blocked authors
// filtered out. Degraded marks a response assembled without a non-critical
// downstream — stale cached posts instead of fresh hydration, or an
// unfiltered timeline when the block list was unreachable — served instead
// of an error while that tier is partitioned or crashed.
type ReadTimelineResp struct {
	Posts    []Post
	Degraded bool
}

// timelineCap bounds stored timelines, like production fan-out caps.
const timelineCap = 1000

const timelineCacheTTL = time.Minute

// staleTimelineTTL bounds how old a degraded (stale-cache) timeline may be;
// generously longer than the ID cache, because serving it is already the
// fallback of last resort.
const staleTimelineTTL = 5 * time.Minute

// defaultFanoutWorkers bounds the write-path fan-out parallelism when the
// deployment does not set Config.FanoutWorkers.
const defaultFanoutWorkers = 8

// registerWriteTimeline installs the writeTimeline service: on every new
// post it fetches the author's followers from the social graph and
// prepends the post ID to each follower's home timeline and to the
// author's own, invalidating cache entries — write-path fan-out, the most
// expensive query in the application (the paper's repost/composePost
// observations hinge on it). Each per-follower push is one atomic
// ListPrepend on the timeline store (an unguarded get/modify/put cycle
// here used to lose concurrent appends), and the audience is walked by a
// bounded worker pool so a high-follower author costs ~ceil(F/workers)
// sequential RPC round-trips instead of F.
//
// With bus set (Config.AsyncFanout) the follower fan-out leaves the write
// path entirely: Append prepends the author's own timeline synchronously —
// authors always read their own writes — then publishes a FanoutEvent and
// returns at broker ack. The fanout consumer group pushes follower
// timelines behind the write (see fanout.go).
func registerWriteTimeline(srv *rpc.Server, graph svcutil.Caller, db svcutil.DB, mc svcutil.KV, workers int, bus mq.Bus) {
	if workers <= 0 {
		workers = defaultFanoutWorkers
	}
	svcutil.Handle(srv, "Append", func(ctx *rpc.Ctx, req *AppendTimelineReq) (*struct{}, error) {
		if req.Author == "" || req.PostID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "writeTimeline: author and post required")
		}
		if bus != nil {
			if err := fanoutPush(ctx, db, mc, []string{req.Author}, req.PostID, 1, true); err != nil {
				return nil, err
			}
			body, err := codec.Marshal(FanoutEvent{Author: req.Author, PostID: req.PostID})
			if err != nil {
				return nil, err
			}
			// The key is the event's stable identity: a client retrying a
			// failed Append republishes the same key, and broker-side
			// publish dedup plus consumer-side idempotency make the retry
			// safe end to end.
			if _, err := bus.PublishKey(ctx, timelineTopic, req.Author+"/"+req.PostID, body); err != nil {
				return nil, err
			}
			return nil, nil
		}
		var followers NeighborsResp
		if err := graph.Call(ctx, "Followers", NeighborsReq{User: req.Author}, &followers); err != nil {
			return nil, err
		}
		audience := append(followers.Users, req.Author)
		if err := fanoutPush(ctx, db, mc, audience, req.PostID, workers, false); err != nil {
			return nil, err
		}
		return nil, nil
	})
}

// registerReadTimeline installs the readTimeline service: cache-first
// timeline ID lookup, batched post hydration via readPost, and block-list
// filtering via blockedUsers. The ID lookup runs through the shared
// svcutil.ReadPath, which purges corrupt cache entries instead of trusting
// a partial decode (a truncated "tl:" value used to shadow the real
// timeline forever) and coalesces concurrent misses on a hot key into a
// single store read. With degrade set, failures of the two enrichment hops
// downgrade the response instead of failing it: a dead readPost tier is
// bridged by the last successfully hydrated timeline ("tlp:" cache), and
// an unreachable blockedUsers tier skips filtering — both marked Degraded.
//
// The page is never decoded here. readPost's reply is a []Post encoding, and
// so is the Posts field that opens a ReadTimelineResp, so the reply is
// readPost's bytes less the posts of blocked authors, then the Degraded flag:
// byte for byte the typed encoding. The stale "tlp:" entry is the same list
// bytes, stored as they are and served as they are once codec.Valid passes
// them, so both degrade modes take this one path.
func registerReadTimeline(srv *rpc.Server, db svcutil.DB, mc svcutil.KV, readPost svcutil.RawCaller, blocked svcutil.Caller, degrade, noCoalesce bool) {
	// A "tl:" value is a []string encoding, and so is a ReadPostsReq (its
	// IDs), so the ID list is validated, never decoded: the page's share of
	// it goes to readPost as it is.
	idsPath := &svcutil.ReadPath[[]byte]{
		MC:         mc,
		TTL:        timelineCacheTTL,
		NoCoalesce: noCoalesce,
		Decode:     func(b []byte) ([]byte, error) { return b, codec.Valid[[]string](b) },
		Fetch: func(ctx context.Context, key string) ([]byte, []byte, bool, error) {
			doc, found, err := db.Get(ctx, "timelines", key)
			if err != nil || !found {
				return nil, nil, false, err
			}
			if err := codec.Valid[[]string](doc.Body); err != nil {
				return nil, nil, false, fmt.Errorf("readTimeline: corrupt timeline %s: %w", key, err)
			}
			return doc.Body, doc.Body, true, nil
		},
	}
	srv.Handle("Read", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var req ReadTimelineReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "%s.Read: decode: %v", ctx.Service, err)
		}
		if req.User == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "readTimeline: user required")
		}
		limit := int(req.Limit)
		if limit <= 0 || limit > timelineCap {
			limit = 20
		}
		all, _, err := idsPath.Get(ctx, "tl:"+req.User)
		if err != nil {
			return nil, err
		}
		ids := firstIDs(all, limit)
		if ids == nil {
			return ctx.OwnReply(codec.AppendBool(codec.AppendLen(transport.AcquireBuf(2), 0), false)), nil
		}
		page, err := readPage(ctx, degrade, readPost, ids)
		if err != nil {
			// Hydration tier down: serve the last good timeline from the
			// stale-posts cache rather than erroring the whole read.
			if degrade {
				if v, found, cerr := mc.Get(ctx, "tlp:"+req.User); cerr == nil && found && codec.Valid[[]Post](v) == nil {
					return ctx.OwnReply(codec.AppendBool(append(transport.AcquireBuf(len(v)+1), v...), true)), nil
				}
			}
			return nil, err
		}
		defer transport.ReleaseBuf(page)
		degraded := false
		var bl BlockedListResp
		if err := callBounded(ctx, degrade, blocked, "List", BlockedListReq{User: req.User}, &bl); err != nil {
			if !degrade {
				return nil, err
			}
			// Block list unreachable: an unfiltered timeline beats no
			// timeline; skip the filter and say so.
			degraded = true
			bl.Users = nil
		}
		// The filtered page is at most the page, and the degraded flag.
		reply, err := filterPage(transport.AcquireBuf(len(page)+1), page, bl.Users)
		if err != nil {
			transport.ReleaseBuf(reply)
			return nil, rpc.Errorf(rpc.CodeInternal, "readTimeline: page from readPost: %v", err)
		}
		if degrade && !degraded {
			// Only fully assembled timelines become the stale fallback. The
			// reply buffer is recycled once it is sent; the cache gets a copy.
			mc.Set(ctx, "tlp:"+req.User, bytes.Clone(reply), staleTimelineTTL) //nolint:errcheck // best-effort
		}
		return ctx.OwnReply(codec.AppendBool(reply, degraded)), nil
	})
}

// firstIDs returns the []string encoding of the first limit IDs of ids, a
// valid []string encoding: ids itself when it holds no more, nil when it
// holds none.
func firstIDs(ids []byte, limit int) []byte {
	n, rest, _ := codec.DecLen(ids)
	switch {
	case n == 0:
		return nil
	case n <= limit:
		return ids
	}
	end := rest
	for i := 0; i < limit; i++ {
		_, end, _ = codec.DecStringBytes(end)
	}
	page := rest[:len(rest)-len(end)]
	return append(codec.AppendLen(make([]byte, 0, binary.MaxVarintLen64+len(page)), limit), page...)
}

// readPage asks readPost for the posts of ids, a ReadPostsReq's encoding, and
// returns its reply as it came: a pooled []Post encoding for the caller to
// release. A read that may degrade gives the hop the non-critical budget.
func readPage(ctx context.Context, degrade bool, readPost svcutil.RawCaller, ids []byte) ([]byte, error) {
	if degrade {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, svcutil.NonCriticalBudget)
		defer cancel()
	}
	call := transport.AcquireCall(readPost.Target(), "Read")
	// Payload, not a pooled copy: a hedged attempt may still be sending it
	// after the call returns.
	call.Payload = ids
	err := readPost.Invoke(ctx, call)
	page := call.Reply
	transport.ReleaseCall(call)
	return page, err
}

// filterPage appends to reply the []Post encoding page less the posts whose
// author is blocked, each kept post's bytes as they are. Of a post only the
// author is read, and it is looked up without being made a string.
func filterPage(reply, page []byte, blocked []string) ([]byte, error) {
	var drop map[string]bool
	if len(blocked) > 0 {
		drop = make(map[string]bool, len(blocked))
		for _, u := range blocked {
			drop[u] = true
		}
	}
	n, rest, err := codec.DecLen(page)
	if err != nil {
		return reply, err
	}
	reply = codec.AppendLen(reply, n) // rewritten below if a post is dropped
	start, kept := len(reply), 0
	for i := 0; i < n; i++ {
		post := rest
		if rest, err = codec.Skip[Post](post); err != nil {
			return reply, err
		}
		if drop != nil && drop[string(postAuthor(post))] {
			continue
		}
		reply = append(reply, post[:len(post)-len(rest)]...)
		kept++
	}
	if len(rest) != 0 {
		return reply, codec.ErrTrailingBytes
	}
	return recount(reply, start, kept), nil
}

// postAuthor returns the author of the valid Post encoding that starts b —
// its second field, after the ID — as b's own bytes.
func postAuthor(b []byte) []byte {
	_, rest, _ := codec.DecStringBytes(b)
	author, _, _ := codec.DecStringBytes(rest)
	return author
}
