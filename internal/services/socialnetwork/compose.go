package socialnetwork

import (
	"strings"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// ComposePostReq creates a new post (or repost) for an authenticated user.
// It is also the JSON body of POST /posts.
type ComposePostReq struct {
	Token string `json:"token"`
	Text  string `json:"text"`
	// Images and Videos carry raw attachment bytes (base64 in JSON).
	Images [][]byte `json:"images,omitempty"`
	Videos [][]byte `json:"videos,omitempty"`
	// RepostOf, when set, makes this a repost of an existing post: the
	// original is read, quoted, and rebroadcast — the longest-latency query
	// type in the application (Section 3.8 of the paper).
	RepostOf string `json:"repost_of,omitempty"`
}

// ComposePostResp returns the stored post. Degraded marks a post that was
// stored and fanned out but not search-indexed because the search tier was
// unreachable — accepted anyway rather than failing the write.
type ComposePostResp struct {
	Post     Post
	Degraded bool
}

// composeDeps are the downstream tiers composePost orchestrates.
type composeDeps struct {
	user     svcutil.Caller
	uniqueID svcutil.Caller
	text     svcutil.Caller
	media    svcutil.Caller
	storage  svcutil.Caller
	timeline svcutil.Caller
	search   svcutil.Caller
	readPost svcutil.Caller
}

// registerComposePost installs the composePost orchestrator: token
// verification, then ID generation, text processing, and media uploads in
// parallel (as in the original service), then the store, and finally
// timeline fan-out and search indexing in parallel. With degrade set, a
// failed search-index hop no longer fails the compose — the post is durable
// and fanned out, only discovery lags — and the response is marked
// Degraded. Timeline fan-out stays fatal: a post nobody's timeline shows
// is a lost write, not a degraded one.
func registerComposePost(srv *rpc.Server, deps composeDeps, degrade bool) {
	svcutil.Handle(srv, "Compose", func(ctx *rpc.Ctx, req *ComposePostReq) (*ComposePostResp, error) {
		username, err := accounts.Verify(ctx, deps.user, req.Token)
		if err != nil {
			return nil, err
		}

		text := req.Text
		if req.RepostOf != "" {
			var orig ReadPostsResp
			if err := deps.readPost.Call(ctx, "Read", ReadPostsReq{IDs: []string{req.RepostOf}}, &orig); err != nil {
				return nil, err
			}
			if len(orig.Posts) == 0 {
				return nil, rpc.NotFoundf("composePost: repost target %q", req.RepostOf)
			}
			o := orig.Posts[0]
			text = strings.TrimSpace("RT @" + o.Author + ": " + o.Text + " " + req.Text)
		}
		if strings.TrimSpace(text) == "" && len(req.Images)+len(req.Videos) == 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "composePost: empty post")
		}

		// Phase 1: unique ID, text processing, and one upload per image or
		// video, in parallel; the media IDs keep the request's order.
		var (
			idResp   UniqueIDResp
			txtResp  TextProcessResp
			mediaIDs []string
		)
		nImages, nMedia := len(req.Images), len(req.Images)+len(req.Videos)
		if nMedia > 0 {
			mediaIDs = make([]string, nMedia)
		}
		err = svcutil.Parallel(2+nMedia, 2+nMedia, func(i int) error {
			switch i {
			case 0:
				return deps.uniqueID.Call(ctx, "Next", UniqueIDReq{}, &idResp)
			case 1:
				return deps.text.Call(ctx, "Process", TextProcessReq{Text: text}, &txtResp)
			}
			up := UploadMediaReq{Kind: MediaImage}
			if i -= 2; i < nImages {
				up.Data = req.Images[i]
			} else {
				up.Kind, up.Data = MediaVideo, req.Videos[i-nImages]
			}
			var mr UploadMediaResp
			err := deps.media.Call(ctx, "Upload", up, &mr)
			mediaIDs[i] = mr.Media.ID
			return err
		})
		if err != nil {
			return nil, err
		}

		post := Post{
			ID:        idResp.ID,
			Author:    username,
			Text:      txtResp.Text,
			Mentions:  txtResp.Mentions,
			URLs:      txtResp.URLs,
			MediaIDs:  mediaIDs,
			CreatedAt: time.Now().UnixNano(),
		}
		if err := deps.storage.Call(ctx, "Store", StorePostReq{Post: post}, nil); err != nil {
			return nil, err
		}

		// Phase 2: fan-out and indexing in parallel.
		degraded := false
		err = svcutil.Parallel(2, 2, func(i int) error {
			if i == 0 {
				return deps.timeline.Call(ctx, "Append", AppendTimelineReq{
					Author: post.Author, PostID: post.ID, Ts: post.CreatedAt,
				}, nil)
			}
			err := callBounded(ctx, degrade, deps.search, "Index", IndexPostReq{PostID: post.ID, Text: post.Text}, nil)
			if err != nil && degrade {
				// Post is stored and fanned out; missing from search until
				// the index tier recovers. Accept anyway.
				degraded, err = true, nil
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := deps.user.Call(ctx, "BumpStat", BumpStatReq{Username: post.Author, Stat: "posts", Delta: 1}, nil); err != nil {
			return nil, err
		}
		return &ComposePostResp{Post: post, Degraded: degraded}, nil
	})
}
