package socialnetwork

import (
	"dsb/internal/codec"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// REST request bodies for the front door whose RPC requests carry a field
// the server sets from the verified token. POST /posts decodes straight into
// ComposePostReq, attachments base64 in the JSON.

// FollowBody is the POST /follow request.
type FollowBody struct {
	Token    string `json:"token"`
	Followee string `json:"followee"`
}

// BlockBody is the POST /block request.
type BlockBody struct {
	Token  string `json:"token"`
	Target string `json:"target"`
}

// FavoriteBody is the POST /favorite request.
type FavoriteBody struct {
	Token  string `json:"token"`
	PostID string `json:"post_id"`
}

// frontendDeps are the tiers the front door fans out to.
type frontendDeps struct {
	compose      svcutil.Caller
	readTimeline svcutil.RawCaller
	readPost     svcutil.Caller
	user         svcutil.Caller
	graph        svcutil.Caller
	blocked      svcutil.Caller
	search       svcutil.Caller
	ads          svcutil.Caller
	recommender  svcutil.Caller
	favorite     svcutil.Caller
}

// registerFrontend installs the REST API — the nginx/php-fpm tier of
// Figure 4. Every handler authenticates where needed and translates
// between JSON and the downstream RPC types.
func registerFrontend(srv *rest.Server, d frontendDeps) {
	accounts.HandleRegister(srv, d.user, 0)
	accounts.HandleLogin(srv, d.user)

	srv.Handle("POST /posts", rest.Forward[ComposePostReq](d.compose, "Compose", func(r *ComposePostResp) any { return r.Post }))

	// A page goes from readTimeline's wire bytes straight into the JSON array
	// the caller gets, never decoded into Posts on the way.
	srv.Handle("GET /timeline/{user}", func(ctx *rest.Ctx, body []byte) (any, error) {
		call := transport.AcquireCall(d.readTimeline.Target(), "Read")
		call.Body = &ReadTimelineReq{User: ctx.PathValue("user"), Limit: 20}
		err := d.readTimeline.Invoke(ctx, call)
		page := call.Reply
		transport.ReleaseCall(call)
		if err != nil {
			return nil, err
		}
		defer transport.ReleaseBuf(page)
		out, err := timelineJSON(transport.AcquireBuf(2*len(page)), page)
		if err != nil {
			transport.ReleaseBuf(out)
			return nil, rpc.Errorf(rpc.CodeInternal, "timeline page from readTimeline: %v", err)
		}
		return ctx.OwnReply(out), nil
	})

	srv.Handle("GET /posts/{id}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp ReadPostsResp
		if err := d.readPost.Call(ctx, "Read", ReadPostsReq{IDs: []string{ctx.PathValue("id")}}, &resp); err != nil {
			return nil, err
		}
		if len(resp.Posts) == 0 {
			return nil, rpc.NotFoundf("no post %q", ctx.PathValue("id"))
		}
		return resp.Posts[0], nil
	})

	srv.Handle("POST /follow", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req FollowBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		follower, err := accounts.Verify(ctx, d.user, req.Token)
		if err != nil {
			return nil, err
		}
		return nil, d.graph.Call(ctx, "Follow", FollowReq{Follower: follower, Followee: req.Followee}, nil)
	})

	srv.Handle("POST /block", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req BlockBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		user, err := accounts.Verify(ctx, d.user, req.Token)
		if err != nil {
			return nil, err
		}
		return nil, d.blocked.Call(ctx, "Block", BlockReq{User: user, Target: req.Target}, nil)
	})

	srv.Handle("POST /favorite", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req FavoriteBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		user, err := accounts.Verify(ctx, d.user, req.Token)
		if err != nil {
			return nil, err
		}
		var resp FavoriteCountResp
		if err := d.favorite.Call(ctx, "Favorite", FavoriteReq{User: user, PostID: req.PostID}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})

	srv.Handle("GET /search", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp SearchResp
		if err := d.search.Call(ctx, "Query", SearchReq{Query: ctx.Query("q"), Limit: 10}, &resp); err != nil {
			return nil, err
		}
		return resp.Hits, nil
	})

	srv.Handle("GET /user/{name}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp InfoResp
		if err := d.user.Call(ctx, "Info", InfoReq{Username: ctx.PathValue("name")}, &resp); err != nil {
			return nil, err
		}
		return resp.Info, nil
	})

	srv.Handle("GET /recommend/{user}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp RecommendResp
		if err := d.recommender.Call(ctx, "Recommend", RecommendReq{User: ctx.PathValue("user"), Limit: 5}, &resp); err != nil {
			return nil, err
		}
		return resp.Users, nil
	})

	srv.Handle("GET /ads", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp AdsResp
		if err := d.ads.Call(ctx, "Suggest", AdsReq{Context: ctx.Query("q")}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})
}

// timelineJSON appends the posts of a ReadTimelineResp wire encoding as the
// JSON array the front door answers with; the Degraded flag after them is
// not part of the answer.
func timelineJSON(b, page []byte) ([]byte, error) {
	b, rest, err := codec.AppendWireJSONList[Post](b, page)
	if err == nil {
		_, rest, err = codec.DecBool(rest)
	}
	if err == nil && len(rest) != 0 {
		err = codec.ErrTrailingBytes
	}
	return b, err
}
