package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"dsb/internal/codec"
	"dsb/internal/core"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/svcutil"
)

// Social Network sizes, shared by social_read and social_mixed. Frozen by
// the sizing pass (README "Sizing"); never scaled at run time.
const (
	socialUsers       = 400
	socialFollowsEach = 8 // 3 200 follow edges
	socialSeedPosts   = 1200
	socialLimit       = 20 // the front door's timeline page size

	// social_read: 2 closed-loop clients.
	socialReadClients = 2
	socialReadOps     = 8000 // per client
	socialReadWarm    = 1000

	// social_mixed: open loop at 40 % of the closed-loop capacity of the
	// 2x2 sharded layout with this 90/10 mix, rounded to 100/s.
	socialMixedRate     = 2400 // arrivals per second
	socialMixedArrivals = 8400 // per rep: 3.5 s of schedule
	socialMixedComposes = 840  // exactly 10 % of the arrivals
	socialMixedWarm     = 1000
)

const (
	opRead = iota
	opCompose
)

// socialOp is one pre-decided request.
type socialOp struct {
	kind uint8
	user int32
	text string // compose only
}

type socialInputs struct {
	mixed   bool
	users   []string
	paths   []string   // GET path per user
	follows [][2]int32 // follower, followee
	// allowed[reader*socialUsers+author]: author is reader or one of
	// reader's followees — the only authors a timeline may show.
	allowed []bool
	userIdx map[string]int32
	seeds   []socialOp
	// warm and ops are each client's requests; an open loop has one list of
	// ops and its arrival schedule.
	warm, ops [][]socialOp
	schedule  []time.Duration
}

func (in *socialInputs) counts() []int     { return lens(in.ops) }
func (in *socialInputs) warmCounts() []int { return lens(in.warm) }

func (in *socialInputs) due() []time.Duration { return in.schedule }

// popularity spreads the users over popularity ranks with a fixed
// permutation of their activity ranks (user 0 is the busiest): the busiest
// author has a mid-sized audience and the most-followed users post rarely,
// so fan-out is the tail of a compose, not its mean.
func popularity(user int) int { return (user*167 + 20) % socialUsers }

// generateSocial builds users, the follow graph, seeded posts and the op
// lists from the seed. How often each user acts follows Zipf(0.9) and how
// often each is followed Zipf(1.0), both as exact quotas (see quota): the
// seed decides who follows whom and the order of everything, not how much
// work a rep holds.
func generateSocial(seed uint64, mixed bool) *socialInputs {
	in := &socialInputs{mixed: mixed, userIdx: make(map[string]int32, socialUsers)}
	rng := rand.New(rand.NewPCG(seed, 0xD5B))
	for u := 0; u < socialUsers; u++ {
		name := fmt.Sprintf("user%03d", u)
		in.users = append(in.users, name)
		in.paths = append(in.paths, "/timeline/"+name)
		in.userIdx[name] = int32(u)
	}
	activity := zipfWeights(socialUsers, 0.9)
	followed := make([]float64, socialUsers)
	for u, w := range zipfWeights(socialUsers, 1.0) {
		followed[popularity(u)] = w
	}

	// Every user follows socialFollowsEach others, and how many followers a
	// user has is their quota of the edges (nobody is followed by more than
	// three quarters of the users). Followee by followee, most followed
	// first, the edges are dealt round the users in a seeded order, so no
	// user is dealt the same followee twice; a user dealt themselves, or a
	// followee they already have, takes the next most followed one instead.
	followers := quotaCounts(followed, socialUsers*socialFollowsEach, socialUsers*3/4)
	byFollowers := make([]int, socialUsers)
	for u := range byFollowers {
		byFollowers[popularity(u)] = u
	}
	in.allowed = make([]bool, socialUsers*socialUsers)
	for u := 0; u < socialUsers; u++ {
		in.allowed[u*socialUsers+u] = true
	}
	order, dealt := rng.Perm(socialUsers), 0
	for rank, f := range byFollowers {
		for c := 0; c < followers[f]; c++ {
			u := order[dealt%socialUsers]
			dealt++
			g := f
			for next := rank; in.allowed[u*socialUsers+g]; {
				next = (next + 1) % socialUsers
				g = byFollowers[next]
			}
			in.allowed[u*socialUsers+g] = true
			in.follows = append(in.follows, [2]int32{int32(u), int32(g)})
		}
	}
	// Follows are made in a seeded order, not most-followed first.
	rng.Shuffle(len(in.follows), func(i, j int) { in.follows[i], in.follows[j] = in.follows[j], in.follows[i] })

	compose := func(author int32) socialOp {
		// One @mention and one URL each: text → userTag → user and
		// text → urlShorten both do real work.
		text := fmt.Sprintf("post %06x by %s hello @%s see https://dsb.example/a/%d",
			rng.Uint32()&0xFFFFFF, in.users[author], in.users[rng.IntN(socialUsers)], rng.IntN(1000))
		return socialOp{kind: opCompose, user: author, text: text}
	}
	read := func(user int32) socialOp { return socialOp{kind: opRead, user: user} }
	list := func(n int, mk func(int32) socialOp) []socialOp {
		out := make([]socialOp, 0, n)
		for _, u := range quota(rng, activity, n) {
			out = append(out, mk(u))
		}
		return out
	}
	// Every user posts socialSeedPosts/socialUsers times, in a seeded order:
	// with socialFollowsEach followees each, every timeline then holds more
	// than a page, so a read costs the same whoever asks and whichever
	// graph the seed dealt.
	for round := 0; round < socialSeedPosts/socialUsers; round++ {
		for _, u := range rng.Perm(socialUsers) {
			in.seeds = append(in.seeds, compose(int32(u)))
		}
	}
	if !mixed {
		// Every user reads once, then the skew: after the warm-up each
		// timeline's ids and posts are cache hits.
		var warm []socialOp
		for _, u := range rng.Perm(socialUsers) {
			warm = append(warm, read(int32(u)))
		}
		warm = append(warm, list(socialReadWarm-socialUsers, read)...)
		all := list(socialReadClients*socialReadOps, read)
		for c := 0; c < socialReadClients; c++ {
			in.warm = append(in.warm, warm[c*len(warm)/socialReadClients:(c+1)*len(warm)/socialReadClients])
			in.ops = append(in.ops, all[c*socialReadOps:(c+1)*socialReadOps])
		}
		return in
	}
	mix := func(n, composes int) []socialOp {
		out := append(list(composes, compose), list(n-composes, read)...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	warm := mix(socialMixedWarm, socialMixedWarm/10)
	in.warm = [][]socialOp{warm[:len(warm)/2], warm[len(warm)/2:]}
	in.ops = [][]socialOp{mix(socialMixedArrivals, socialMixedComposes)}
	in.schedule = poissonSchedule(rng, socialMixedArrivals, socialMixedRate)
	return in
}

// socialStack is one booted Social Network.
type socialStack struct {
	in     *socialInputs
	sn     *socialnetwork.SocialNetwork
	tokens []string
	// scratch is each closed-loop client's reply buffer, reused across ops.
	scratch [][]socialnetwork.Post
	// postIDs[i] is the post op i composed ("" if it did not); each op owns
	// its slot, so concurrent ops never share one.
	postIDs []string
}

func (in *socialInputs) boot(app *core.App, lap func()) (stack, error) {
	// Degradation is off: when it is on, readTimeline and composePost give
	// post hydration, the block list and the search index 40 ms each
	// (svcutil.NonCriticalBudget) and then serve a stale, unfiltered or
	// unindexed answer, or an error when there is no stale one yet. A stall of
	// the host of that length would turn into a failed op, or into an op that
	// did less work than its twin on the other tree.
	cfg := socialnetwork.Config{DisableDegradation: true}
	if in.mixed {
		cfg.Shards, cfg.ShardReplicas = 2, 2
	}
	sn, err := socialnetwork.New(app, cfg)
	if err != nil {
		return nil, err
	}
	lap()
	st := &socialStack{
		in: in, sn: sn, tokens: make([]string, socialUsers),
		scratch: make([][]socialnetwork.Post, len(in.warm)),
		postIDs: make([]string, len(in.ops[0])),
	}
	ctx := context.Background()
	for u, name := range in.users {
		if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: name, Password: "pw"}, nil); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		var login socialnetwork.LoginResp
		if err := sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: name, Password: "pw"}, &login); err != nil {
			return nil, fmt.Errorf("login %s: %w", name, err)
		}
		st.tokens[u] = login.Token
	}
	lap()
	for _, f := range in.follows {
		req := socialnetwork.FollowReq{Follower: in.users[f[0]], Followee: in.users[f[1]]}
		if err := sn.Graph.Call(ctx, "Follow", req, nil); err != nil {
			return nil, fmt.Errorf("follow: %w", err)
		}
	}
	lap()
	for i := range in.seeds {
		if _, err := st.compose(ctx, &in.seeds[i]); err != nil {
			return nil, fmt.Errorf("seed compose: %w", err)
		}
	}
	lap()
	return st, nil
}

func (st *socialStack) warm(ctx context.Context, client, i int) error {
	op := &st.in.warm[client][i]
	if op.kind == opCompose {
		_, err := st.compose(ctx, op)
		return err
	}
	return st.read(ctx, client, op)
}

func (st *socialStack) do(ctx context.Context, client, i int) error {
	op := &st.in.ops[client][i]
	if op.kind == opCompose {
		id, err := st.compose(ctx, op)
		st.postIDs[i] = id
		return err
	}
	return st.read(ctx, client, op)
}

func (st *socialStack) compose(ctx context.Context, op *socialOp) (string, error) {
	var resp socialnetwork.ComposePostResp
	req := socialnetwork.ComposePostReq{Token: st.tokens[op.user], Text: op.text}
	if err := st.sn.Compose.Call(ctx, "Compose", req, &resp); err != nil {
		return "", err
	}
	if resp.Post.ID == "" || resp.Post.Author != st.in.users[op.user] {
		return "", fmt.Errorf("%w: compose by %s stored %q by %q", errCheck, st.in.users[op.user], resp.Post.ID, resp.Post.Author)
	}
	return resp.Post.ID, nil
}

// read fetches a home timeline — through the REST front door on
// social_read, straight from the readTimeline tier on social_mixed — and
// checks the reply: non-empty, at most a page, and only authors the reader
// follows (or the reader).
func (st *socialStack) read(ctx context.Context, client int, op *socialOp) error {
	var posts []socialnetwork.Post
	if st.in.mixed {
		var resp socialnetwork.ReadTimelineResp
		req := socialnetwork.ReadTimelineReq{User: st.in.users[op.user], Limit: socialLimit}
		if err := st.sn.ReadTimeline.Call(ctx, "Read", req, &resp); err != nil {
			return err
		}
		posts = resp.Posts
	} else {
		posts = st.scratch[client][:0]
		if err := st.sn.Frontend.Do(ctx, "GET", st.in.paths[op.user], nil, &posts); err != nil {
			return err
		}
		st.scratch[client] = posts
	}
	if len(posts) == 0 || len(posts) > socialLimit {
		return fmt.Errorf("%w: timeline of %s has %d posts, want 1..%d", errCheck, st.in.users[op.user], len(posts), socialLimit)
	}
	for i := range posts {
		author, ok := st.in.userIdx[posts[i].Author]
		if !ok || !st.in.allowed[int(op.user)*socialUsers+int(author)] {
			return fmt.Errorf("%w: timeline of %s shows a post by %q, whom they do not follow", errCheck, st.in.users[op.user], posts[i].Author)
		}
	}
	return nil
}

// drain has nothing to wait for: fan-out is synchronous in this layout, so
// every write an op caused is done when the op returns.
func (st *socialStack) drain() error { return nil }

// verify checks read-your-writes — each composing author's own timeline
// holds their last post — and that the posts in storage equal the composes
// that succeeded (one batched read of every composed ID). The timeline is
// read from the timeline store, not through readTimeline: the tier's "tl:"
// cache is invalidated best-effort, and a read that raced the author's
// compose can leave the older list cached for its TTL. How many authors
// would have seen that is printed, not failed: it is not this run's output.
func (st *socialStack) verify() error {
	ctx := context.Background()
	last := make(map[int32]string)
	var ids []string
	for i, id := range st.postIDs {
		if id != "" {
			last[st.in.ops[0][i].user] = id
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	router, err := st.sn.App.ShardedRPC("bench", "social.db-timeline")
	if err != nil {
		return err
	}
	timelines := svcutil.DB{Shards: router}
	stale := 0
	for author, id := range last {
		doc, found, err := timelines.Get(ctx, "timelines", "tl:"+st.in.users[author])
		if err != nil {
			return err
		}
		var stored []string
		if found {
			if err := codec.Unmarshal(doc.Body, &stored); err != nil {
				return err
			}
		}
		if !slices.Contains(stored, id) {
			return fmt.Errorf("read-your-writes: stored timeline of %s lacks their last post %s", st.in.users[author], id)
		}
		var resp socialnetwork.ReadTimelineResp
		req := socialnetwork.ReadTimelineReq{User: st.in.users[author], Limit: int64(len(stored))}
		if err := st.sn.ReadTimeline.Call(ctx, "Read", req, &resp); err != nil {
			return err
		}
		if !slices.ContainsFunc(resp.Posts, func(p socialnetwork.Post) bool { return p.ID == id }) {
			stale++
		}
	}
	if stale > 0 {
		fmt.Printf("note: %d of %d composing authors read a stale cached timeline after the rep\n", stale, len(last))
	}
	readPost, err := st.sn.App.RPC("bench", "social.readPost")
	if err != nil {
		return err
	}
	var stored socialnetwork.ReadPostsResp
	if err := readPost.Call(ctx, "Read", socialnetwork.ReadPostsReq{IDs: ids}, &stored); err != nil {
		return err
	}
	if len(stored.Posts) != len(ids) {
		return fmt.Errorf("storage holds %d of the %d composed posts", len(stored.Posts), len(ids))
	}
	return nil
}

func (st *socialStack) close() { st.sn.Close() }
