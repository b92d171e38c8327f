package socialnetwork

import (
	"context"
	"fmt"
	"testing"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/svcutil"
)

// bootSharded is boot with a sharded storage tier: every db/mc backend
// group runs as shards×replicas instances behind consistent-hash routing.
func bootSharded(t *testing.T, shards, replicas int, users ...string) (*SocialNetwork, map[string]string) {
	t.Helper()
	app := core.NewApp("social-sharded", core.Options{})
	t.Cleanup(func() { app.Close() })
	sn, err := New(app, Config{LayoutConfig: svcutil.LayoutConfig{Shards: shards, ShardReplicas: replicas}, SearchShards: 2})
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

// TestShardedEndToEnd runs the core social-network flow — follow, compose,
// timeline, block — on a 3-shard×2-replica storage tier. The services are
// byte-identical to the single-instance deployment; only the wiring layer
// changed, which is exactly what the refactor promises.
func TestShardedEndToEnd(t *testing.T) {
	sn, tokens := bootSharded(t, 3, 2, "alice", "bob", "carol")
	ctx := context.Background()

	// The stores really are sharded: each db tier registered 6 instances
	// spread over 3 shard labels.
	instances := sn.App.Registry.Instances("social.db-posts")
	if len(instances) != 6 {
		t.Fatalf("db-posts has %d instances, want 6", len(instances))
	}
	labels := make(map[string]int)
	for _, inst := range instances {
		labels[inst.Meta[shard.MetaShard]]++
	}
	if len(labels) != 3 {
		t.Fatalf("db-posts shard labels = %v, want 3 distinct", labels)
	}

	for _, f := range []string{"bob", "carol"} {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f, Followee: "alice"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Enough posts that the keys provably span multiple shards.
	var ids []string
	for i := 0; i < 12; i++ {
		post := compose(t, sn, tokens["alice"], fmt.Sprintf("post %d from alice", i))
		ids = append(ids, post.ID)
	}
	for _, reader := range []string{"alice", "bob", "carol"} {
		posts := timeline(t, sn, reader)
		if len(posts) != 12 {
			t.Fatalf("%s timeline has %d posts, want 12", reader, len(posts))
		}
		// Newest-first, fully hydrated.
		for i, p := range posts {
			if p.ID != ids[len(ids)-1-i] {
				t.Fatalf("%s timeline order: got %s at %d, want %s", reader, p.ID, i, ids[len(ids)-1-i])
			}
			if p.Author != "alice" || p.Text == "" {
				t.Fatalf("%s timeline post %d not hydrated: %+v", reader, i, p)
			}
		}
	}

	// Block filtering still composes with sharded block-list storage.
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "carol", Followee: "bob"}, nil); err != nil {
		t.Fatal(err)
	}
	bobPost := compose(t, sn, tokens["bob"], "bob says hi")
	if err := sn.Frontend.Do(ctx, "POST", "/block", BlockBody{Token: tokens["carol"], Target: "bob"}, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range timeline(t, sn, "carol") {
		if p.ID == bobPost.ID {
			t.Fatal("blocked author's post leaked into carol's timeline")
		}
	}
}

// TestShardedSurvivesReplicaFault makes one replica of the posts store
// error behind the routing layer: with two replicas per shard, reads fall
// over to the healthy sibling and the timeline stays fully hydrated.
func TestShardedSurvivesReplicaFault(t *testing.T) {
	inj := fault.NewInjector(7)
	app := core.NewApp("social-sharded-fault", core.Options{Network: inj.Wrap(rpc.NewMem())})
	t.Cleanup(func() { app.Close() })
	sn, err := New(app, Config{LayoutConfig: svcutil.LayoutConfig{Shards: 2, ShardReplicas: 2}, SearchShards: 2})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	ctx := context.Background()
	for _, u := range []string{"alice", "bob"} {
		if err := sn.User.Call(ctx, "Register", RegisterReq{Username: u, Password: "pw-" + u}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var lr LoginResp
	if err := sn.User.Call(ctx, "Login", LoginReq{Username: "alice", Password: "pw-alice"}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		var resp ComposePostResp
		if err := sn.Compose.Call(ctx, "Compose", ComposePostReq{Token: lr.Token, Text: fmt.Sprintf("post %d", i)}, &resp); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Post.ID)
	}

	// Fail every call pinned to the first replica of each db-posts shard:
	// the fault targets replica *addresses*, so the sibling stays healthy.
	seen := make(map[string]bool)
	for _, inst := range sn.App.Registry.Instances("social.db-posts") {
		label := inst.Meta[shard.MetaShard]
		if seen[label] {
			continue
		}
		seen[label] = true
		defer inj.Add(fault.Rule{To: "social.db-posts", Addr: inst.Addr, ErrCode: rpc.CodeUnavailable})()
	}

	// The cache may still serve; the point is that the read does not error,
	// first time, even when a store replica does.
	var resp ReadTimelineResp
	err = sn.ReadTimeline.Call(ctx, "Read", ReadTimelineReq{User: "bob", Limit: 50}, &resp)
	if err != nil || len(resp.Posts) != 8 || resp.Degraded {
		t.Fatalf("timeline under replica fault: err=%v posts=%d degraded=%v", err, len(resp.Posts), resp.Degraded)
	}
}
