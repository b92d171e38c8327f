package socialnetwork

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dsb/internal/core"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// boot creates a full deployment and registers + logs in the given users,
// returning their tokens.
func boot(t *testing.T, users ...string) (*SocialNetwork, map[string]string) {
	t.Helper()
	return bootWith(t, core.Options{}, Config{SearchShards: 2}, users...)
}

// bootWith is boot for a test that needs its own app options or config.
func bootWith(t *testing.T, opts core.Options, cfg Config, users ...string) (*SocialNetwork, map[string]string) {
	t.Helper()
	app := core.NewApp("social-test", opts)
	t.Cleanup(func() { app.Close() })
	sn, err := New(app, cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx := context.Background()
	tokens := make(map[string]string, len(users))
	for _, u := range users {
		if err := sn.User.Call(ctx, "Register", RegisterReq{Username: u, Password: "pw-" + u}, nil); err != nil {
			t.Fatalf("register %s: %v", u, err)
		}
		var lr LoginResp
		if err := sn.User.Call(ctx, "Login", LoginReq{Username: u, Password: "pw-" + u}, &lr); err != nil {
			t.Fatalf("login %s: %v", u, err)
		}
		tokens[u] = lr.Token
	}
	return sn, tokens
}

func compose(t *testing.T, sn *SocialNetwork, token, text string) Post {
	t.Helper()
	var resp ComposePostResp
	if err := sn.Compose.Call(context.Background(), "Compose", ComposePostReq{Token: token, Text: text}, &resp); err != nil {
		t.Fatalf("compose: %v", err)
	}
	return resp.Post
}

func timeline(t *testing.T, sn *SocialNetwork, user string) []Post {
	t.Helper()
	var resp ReadTimelineResp
	if err := sn.ReadTimeline.Call(context.Background(), "Read", ReadTimelineReq{User: user, Limit: 50}, &resp); err != nil {
		t.Fatalf("timeline %s: %v", user, err)
	}
	return resp.Posts
}

func TestPostReachesFollowersTimeline(t *testing.T) {
	sn, tokens := boot(t, "alice", "bob", "carol")
	ctx := context.Background()
	// bob and carol follow alice.
	for _, f := range []string{"bob", "carol"} {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f, Followee: "alice"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	post := compose(t, sn, tokens["alice"], "hello world from alice")

	for _, reader := range []string{"alice", "bob", "carol"} {
		posts := timeline(t, sn, reader)
		if len(posts) != 1 || posts[0].ID != post.ID {
			t.Fatalf("%s timeline = %+v", reader, posts)
		}
	}
	// A non-follower sees nothing.
	if posts := timeline(t, sn, "carol"); posts[0].Author != "alice" {
		t.Fatalf("author = %s", posts[0].Author)
	}
	sn2, _ := boot(t, "dave")
	_ = sn2
}

func TestTimelineNewestFirst(t *testing.T) {
	sn, tokens := boot(t, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	first := compose(t, sn, tokens["alice"], "first post")
	second := compose(t, sn, tokens["alice"], "second post")
	posts := timeline(t, sn, "bob")
	if len(posts) != 2 || posts[0].ID != second.ID || posts[1].ID != first.ID {
		t.Fatalf("order wrong: %+v", posts)
	}
}

func TestComposeRequiresAuth(t *testing.T) {
	sn, _ := boot(t, "alice")
	err := sn.Compose.Call(context.Background(), "Compose", ComposePostReq{Token: "bogus", Text: "x"}, nil)
	if !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("want unauthorized, got %v", err)
	}
}

func TestMentionsAndURLs(t *testing.T) {
	sn, tokens := boot(t, "alice", "bob")
	post := compose(t, sn, tokens["alice"], "hey @bob @ghost check https://example.com/very/long/path")
	if len(post.Mentions) != 1 || post.Mentions[0] != "bob" {
		t.Fatalf("mentions = %v (ghost must be dropped)", post.Mentions)
	}
	if len(post.URLs) != 1 || !strings.HasPrefix(post.URLs[0], shortPrefix) {
		t.Fatalf("urls = %v", post.URLs)
	}
	if strings.Contains(post.Text, "example.com") {
		t.Fatalf("text not rewritten: %q", post.Text)
	}
	if !strings.Contains(post.Text, post.URLs[0]) {
		t.Fatalf("short url missing from text: %q", post.Text)
	}
}

func TestRepostQuotesOriginal(t *testing.T) {
	sn, tokens := boot(t, "alice", "bob")
	orig := compose(t, sn, tokens["alice"], "original thought")
	var resp ComposePostResp
	err := sn.Compose.Call(context.Background(), "Compose",
		ComposePostReq{Token: tokens["bob"], Text: "so true", RepostOf: orig.ID}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Post.Text, "RT @alice: original thought") {
		t.Fatalf("repost text = %q", resp.Post.Text)
	}
	// Repost of a missing post fails cleanly.
	err = sn.Compose.Call(context.Background(), "Compose",
		ComposePostReq{Token: tokens["bob"], Text: "x", RepostOf: "nope"}, nil)
	if !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("want not found, got %v", err)
	}
}

func TestSearchFindsPosts(t *testing.T) {
	sn, tokens := boot(t, "alice")
	compose(t, sn, tokens["alice"], "kubernetes cluster scaling tricks")
	compose(t, sn, tokens["alice"], "my coffee brewing notes")
	var resp SearchResp
	if err := sn.Search.Call(context.Background(), "Query", SearchReq{Query: "coffee brewing"}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 1 {
		t.Fatalf("hits = %+v", resp.Hits)
	}
	if err := sn.Search.Call(context.Background(), "Query", SearchReq{Query: "kubernetes"}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 1 {
		t.Fatalf("kubernetes hits = %+v", resp.Hits)
	}
}

// TestSearchRoutesThroughIndexGroups indexes posts through the search front
// over three index shard groups and checks, through the index tier's router,
// that each post lands on exactly the group its ID hashes to, that a query
// merges hits from every group, and that the merge is in score order.
func TestSearchRoutesThroughIndexGroups(t *testing.T) {
	sn, _ := bootWith(t, core.Options{}, Config{SearchShards: 3})
	ctx := context.Background()
	router, err := sn.App.ShardedRPC("test", "social.search-index")
	if err != nil {
		t.Fatal(err)
	}
	groups := router.Scatter()
	if len(groups) != 3 {
		t.Fatalf("search-index serves %d shard groups, want 3", len(groups))
	}
	const posts = 30
	for i := 0; i < posts; i++ {
		// Each post has a term of its own, and "coffee" diluted by i%5
		// filler terms, so the shared query scores the posts unevenly.
		text := fmt.Sprintf("coffee tok%02d", i) + strings.Repeat(" filler", i%5)
		if err := sn.Search.Call(ctx, "Index", IndexPostReq{PostID: fmt.Sprintf("p%02d", i), Text: text}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < posts; i++ {
		id := fmt.Sprintf("p%02d", i)
		var holders []string
		for _, g := range groups {
			var resp SearchResp
			if err := g[0].Call(ctx, "Query", SearchReq{Query: fmt.Sprintf("tok%02d", i)}, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Hits) > 0 {
				holders = append(holders, g[0].Addr())
			}
		}
		if owner := router.Group(router.Owner(id)); len(holders) != 1 || holders[0] != owner[0].Addr() {
			t.Fatalf("%s is held by %v, want only its owner group's %s", id, holders, owner[0].Addr())
		}
	}
	var resp SearchResp
	if err := sn.Search.Call(ctx, "Query", SearchReq{Query: "coffee", Limit: posts}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != posts {
		t.Fatalf("coffee hits %d posts, want %d", len(resp.Hits), posts)
	}
	owners := map[string]bool{}
	for i, h := range resp.Hits {
		owners[router.Owner(h.PostID)] = true
		if i > 0 && h.Score > resp.Hits[i-1].Score {
			t.Fatalf("hit %d (%+v) outscores hit %d (%+v)", i, h, i-1, resp.Hits[i-1])
		}
	}
	if len(owners) != 3 {
		t.Fatalf("coffee hits come from groups %v, want all 3", owners)
	}
}

// TestSearchReportsLowestFailingShard pins the scatter's error rule: when
// shard groups fail, the query reports the lowest-labelled one's error,
// whichever finished first. Here group 1 fails at once and group 0 only
// after it.
func TestSearchReportsLowestFailingShard(t *testing.T) {
	net := rpc.NewMem()
	for round := 0; round < 20; round++ {
		shard1Done := make(chan struct{})
		scripts := []func() error{
			func() error {
				<-shard1Done
				return rpc.Errorf(rpc.CodeUnavailable, "index0 down")
			},
			func() error {
				defer close(shard1Done)
				return rpc.Errorf(rpc.CodeUnavailable, "index1 down")
			},
			func() error { return nil },
		}
		index := shard.NewRouter(net, "search-index")
		var instances []registry.Instance
		var servers []*rpc.Server
		for i, script := range scripts {
			srv := rpc.NewServer("search-index")
			svcutil.Handle(srv, "Query", func(*rpc.Ctx, *SearchReq) (*SearchResp, error) {
				return &SearchResp{}, script()
			})
			addr, err := srv.Start(net, fmt.Sprintf("search-index:%d-%d", round, i))
			if err != nil {
				t.Fatal(err)
			}
			servers = append(servers, srv)
			instances = append(instances, registry.Instance{Addr: addr, Meta: map[string]string{shard.MetaShard: fmt.Sprint(i)}})
		}
		index.Sync(instances)
		srv := rpc.NewServer("search")
		registerSearch(srv, index)
		addr, err := srv.Start(net, fmt.Sprintf("search:%d", round))
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.NewClient(net, "search", addr)
		err = c.Call(context.Background(), "Query", SearchReq{Query: "coffee"}, &SearchResp{})
		c.Close()
		srv.Close()
		index.Close()
		for _, s := range servers {
			s.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "index0 down") {
			t.Fatalf("round %d: err = %v, want index0's", round, err)
		}
	}
}

func TestBlockedAuthorFiltered(t *testing.T) {
	sn, tokens := boot(t, "alice", "bob", "troll")
	ctx := context.Background()
	for _, a := range []string{"alice", "troll"} {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: a}, nil); err != nil {
			t.Fatal(err)
		}
	}
	compose(t, sn, tokens["alice"], "nice content")
	compose(t, sn, tokens["troll"], "bad content")
	if posts := timeline(t, sn, "bob"); len(posts) != 2 {
		t.Fatalf("pre-block timeline = %d posts", len(posts))
	}
	// Block via the REST front door (exercises auth path).
	if err := sn.Frontend.Do(ctx, "POST", "/block", BlockBody{Token: tokens["bob"], Target: "troll"}, nil); err != nil {
		t.Fatal(err)
	}
	posts := timeline(t, sn, "bob")
	if len(posts) != 1 || posts[0].Author != "alice" {
		t.Fatalf("post-block timeline = %+v", posts)
	}
}

func TestFollowUpdatesCounts(t *testing.T) {
	sn, _ := boot(t, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	var info InfoResp
	if err := sn.User.Call(ctx, "Info", InfoReq{Username: "alice"}, &info); err != nil {
		t.Fatal(err)
	}
	if info.Info.Followers != 1 {
		t.Fatalf("alice followers = %d", info.Info.Followers)
	}
	// Self-follow rejected.
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "alice", Followee: "alice"}, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("self-follow: %v", err)
	}
}

func TestRecommenderFriendsOfFriends(t *testing.T) {
	sn, _ := boot(t, "alice", "bob", "carol", "dave")
	ctx := context.Background()
	// alice -> bob, carol; bob -> dave; carol -> dave.
	follows := [][2]string{{"alice", "bob"}, {"alice", "carol"}, {"bob", "dave"}, {"carol", "dave"}}
	for _, f := range follows {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f[0], Followee: f[1]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var rec RecommendResp
	var recClient = sn.App
	_ = recClient
	c, err := sn.App.RPC("test", "social.recommender")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call(ctx, "Recommend", RecommendReq{User: "alice", Limit: 5}, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Users) != 1 || rec.Users[0] != "dave" {
		t.Fatalf("recommendations = %v, want [dave]", rec.Users)
	}
}

func TestFrontendEndToEnd(t *testing.T) {
	sn, _ := boot(t)
	ctx := context.Background()
	fe := sn.Frontend

	// Register + login over REST.
	if err := fe.Do(ctx, "POST", "/register", LoginReq{Username: "eve", Password: "s3cret"}, nil); err != nil {
		t.Fatal(err)
	}
	var login LoginResp
	if err := fe.Do(ctx, "POST", "/login", LoginReq{Username: "eve", Password: "s3cret"}, &login); err != nil {
		t.Fatal(err)
	}
	// Wrong password rejected.
	if err := fe.Do(ctx, "POST", "/login", LoginReq{Username: "eve", Password: "wrong"}, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("bad login: %v", err)
	}

	// Post with an image attachment.
	var post Post
	if err := fe.Do(ctx, "POST", "/posts", ComposePostReq{Token: login.Token, Text: "coffee time", Images: [][]byte{make([]byte, 4096)}}, &post); err != nil {
		t.Fatal(err)
	}
	if post.Author != "eve" || len(post.MediaIDs) != 1 {
		t.Fatalf("post = %+v", post)
	}

	// Read it back by ID and via timeline.
	var got Post
	if err := fe.Do(ctx, "GET", "/posts/"+post.ID, nil, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != post.ID {
		t.Fatalf("got = %+v", got)
	}
	var tl []Post
	if err := fe.Do(ctx, "GET", "/timeline/eve", nil, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl) != 1 {
		t.Fatalf("timeline = %+v", tl)
	}

	// Search, ads, favorite, user info.
	var hits []SearchHit
	if err := fe.Do(ctx, "GET", "/search?q=coffee", nil, &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("search hits = %+v", hits)
	}
	var ad AdsResp
	if err := fe.Do(ctx, "GET", "/ads?q=coffee+time", nil, &ad); err != nil {
		t.Fatal(err)
	}
	if !ad.Found || ad.Ad.Keyword != "coffee" {
		t.Fatalf("ad = %+v", ad)
	}
	var fav FavoriteCountResp
	if err := fe.Do(ctx, "POST", "/favorite", FavoriteBody{Token: login.Token, PostID: post.ID}, &fav); err != nil {
		t.Fatal(err)
	}
	if fav.Count != 1 {
		t.Fatalf("favorite count = %d", fav.Count)
	}
	// Favoriting twice stays at 1 (idempotent per user).
	if err := fe.Do(ctx, "POST", "/favorite", FavoriteBody{Token: login.Token, PostID: post.ID}, &fav); err != nil {
		t.Fatal(err)
	}
	if fav.Count != 1 {
		t.Fatalf("double favorite count = %d", fav.Count)
	}
	var info UserInfo
	if err := fe.Do(ctx, "GET", "/user/eve", nil, &info); err != nil {
		t.Fatal(err)
	}
	if info.Posts != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestTraceCoversComposePath(t *testing.T) {
	sn, tokens := boot(t, "alice")
	compose(t, sn, tokens["alice"], "trace me please")
	sn.App.FlushTraces()
	// Find the compose trace: it must include spans from composePost,
	// text, uniqueID, postStorage, writeTimeline, and search.
	want := []string{"social.composePost", "social.text", "social.uniqueID", "social.postStorage", "social.writeTimeline", "social.search"}
	found := map[string]bool{}
	for _, id := range sn.App.Traces.TraceIDs() {
		for _, span := range sn.App.Traces.Spans(id) {
			found[span.Service] = true
		}
	}
	for _, svc := range want {
		if !found[svc] {
			t.Fatalf("no span from %s; services seen: %v", svc, found)
		}
	}
}

func TestVideoUploadLimit(t *testing.T) {
	sn, tokens := boot(t, "alice")
	err := sn.Compose.Call(context.Background(), "Compose", ComposePostReq{
		Token:  tokens["alice"],
		Text:   "big video",
		Videos: [][]byte{make([]byte, maxVideoBytes+1)},
	}, nil)
	if !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("oversize video: %v", err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	sn, _ := boot(t, "alice")
	err := sn.User.Call(context.Background(), "Register", RegisterReq{Username: "alice", Password: "x"}, nil)
	if !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("duplicate register: %v", err)
	}
}

// The front door writes its timeline page with generated JSON and the
// client reads it with generated JSON; both must be indistinguishable from
// encoding/json, which wrote and read that page before: the raw reply is
// json.Marshal of the posts, escapes and all, and decodes back to them.
func TestTimelineReplyIsEncodingJSON(t *testing.T) {
	var mu sync.Mutex
	var raw []byte
	capture := func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			err := next(ctx, call)
			if call.Target == "social.frontend" {
				mu.Lock()
				raw = bytes.Clone(call.Reply) // pooled: dead once Do has decoded it
				mu.Unlock()
			}
			return err
		}
	}
	sn, tokens := bootWith(t, core.Options{ClientMiddleware: []transport.Middleware{capture}}, Config{SearchShards: 1}, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"plain hello @bob see https://dsb.example/a/1",
		"<b>bold</b> & \"quoted\" \\ back/slash",
		"tab\there\nnewline \u2028 sep, snowman ☃, clef 𝄞, bad \xff byte",
	} {
		compose(t, sn, tokens["alice"], text)
	}
	want := timeline(t, sn, "bob")
	if len(want) != 3 {
		t.Fatalf("timeline has %d posts, want 3", len(want))
	}
	var got []Post
	if err := sn.Frontend.Do(ctx, "GET", "/timeline/bob", nil, &got); err != nil {
		t.Fatal(err)
	}
	wantRaw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(raw, wantRaw) {
		t.Fatalf("front door wrote\n%s\nencoding/json writes\n%s", raw, wantRaw)
	}
	var viaStd []Post
	if err := json.Unmarshal(raw, &viaStd); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, viaStd) {
		t.Fatalf("client decoded %+v, encoding/json decodes %+v", got, viaStd)
	}
}

// TestBumpStatConcurrent: concurrent counter bumps on one user — follows of
// a celebrity, composes by one author — all land. A Get, an increment and a
// Put per bump would let two of them read the same count.
func TestBumpStatConcurrent(t *testing.T) {
	sn, _ := boot(t, "star")
	ctx := context.Background()
	const workers, bumps = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < bumps; i++ {
				if err := sn.User.Call(ctx, "BumpStat", BumpStatReq{Username: "star", Stat: "followers", Delta: 1}, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var info InfoResp
	if err := sn.User.Call(ctx, "Info", InfoReq{Username: "star"}, &info); err != nil {
		t.Fatal(err)
	}
	if got := info.Info.Followers; got != workers*bumps {
		t.Fatalf("followers = %d after %d concurrent bumps of +1", got, workers*bumps)
	}
}

// TestFollowConcurrent: concurrent follows of one user by different fans all
// land in its followers list, as they do in its follower count. A Get, an
// append and a Put per follow would let two of them read the same list, and
// the later Put drop the earlier one's name.
func TestFollowConcurrent(t *testing.T) {
	const workers, follows = 8, 25
	fans := make([]string, 0, workers*follows)
	for i := 0; i < workers*follows; i++ {
		fans = append(fans, fmt.Sprintf("fan-%03d", i))
	}
	sn, _ := boot(t, append([]string{"star"}, fans...)...)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, fan := range fans[w*follows : (w+1)*follows] {
				if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: fan, Followee: "star"}, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var followers NeighborsResp
	if err := sn.Graph.Call(ctx, "Followers", NeighborsReq{User: "star"}, &followers); err != nil {
		t.Fatal(err)
	}
	distinct := slices.Compact(slices.Sorted(slices.Values(followers.Users)))
	if len(followers.Users) != len(fans) || !slices.Equal(distinct, fans) {
		t.Fatalf("star's followers list holds %d names (%d distinct) after %d concurrent follows, want each once",
			len(followers.Users), len(distinct), len(fans))
	}
	var info InfoResp
	if err := sn.User.Call(ctx, "Info", InfoReq{Username: "star"}, &info); err != nil {
		t.Fatal(err)
	}
	if info.Info.Followers != int64(len(fans)) {
		t.Fatalf("followers = %d after %d concurrent follows", info.Info.Followers, len(fans))
	}
}

// TestFollowHubConcurrent races follows into both of one user's sets: hub
// follows new users while fans follow it. No follow may be lost, and each
// counter must match its set.
func TestFollowHubConcurrent(t *testing.T) {
	const n = 40
	names := func(prefix string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%03d", prefix, i)
		}
		return out
	}
	news, fans := names("new"), names("fan")
	sn, _ := boot(t, slices.Concat([]string{"hub"}, news, fans)...)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		for _, req := range []FollowReq{{Follower: "hub", Followee: news[i]}, {Follower: fans[i], Followee: "hub"}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sn.Graph.Call(ctx, "Follow", req, nil); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	neighbors := func(method, user string) []string {
		var resp NeighborsResp
		if err := sn.Graph.Call(ctx, method, NeighborsReq{User: user}, &resp); err != nil {
			t.Fatal(err)
		}
		return slices.Sorted(slices.Values(resp.Users))
	}
	if got := neighbors("Followees", "hub"); !slices.Equal(got, news) {
		t.Errorf("hub follows %d users after %d concurrent follows: %v", len(got), n, got)
	}
	if got := neighbors("Followers", "hub"); !slices.Equal(got, fans) {
		t.Errorf("hub has %d followers after %d concurrent follows, want each fan once", len(got), n)
	}
	var info InfoResp
	if err := sn.User.Call(ctx, "Info", InfoReq{Username: "hub"}, &info); err != nil {
		t.Fatal(err)
	}
	if hub := info.Info; hub.Followees != n || hub.Followers != n {
		t.Errorf("hub's counters read %d followees and %d followers, want %d and %d", hub.Followees, hub.Followers, n, n)
	}
}
