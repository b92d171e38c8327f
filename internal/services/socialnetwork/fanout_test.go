package socialnetwork

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

// bootAsync boots a deployment with the broker-backed fan-out path and
// consumers fanout replicas (2 when 0), and registers + logs in the given
// users.
func bootAsync(t *testing.T, cfg Config, consumers int, users ...string) (*SocialNetwork, map[string]string) {
	t.Helper()
	sn, tokens, stop := bootAsyncOn(t, core.NewApp("social-async", core.Options{}), cfg, consumers, users...)
	t.Cleanup(stop)
	return sn, tokens
}

// bootAsyncOn is bootAsync on an app the caller configured, and stops with
// stop.
func bootAsyncOn(t *testing.T, app *core.App, cfg Config, consumers int, users ...string) (_ *SocialNetwork, _ map[string]string, stop func()) {
	t.Helper()
	cfg.SearchShards = 2
	cfg.AsyncFanout = true
	sn, err := New(app, cfg)
	if err != nil {
		app.Close()
		t.Fatalf("boot: %v", err)
	}
	if consumers <= 0 {
		consumers = 2
	}
	for i := 1; i < consumers; i++ {
		if _, err := app.Spawn("social.fanout"); err != nil {
			t.Fatalf("spawn a fanout consumer: %v", err)
		}
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
	return sn, tokens, func() { sn.Close(); app.Close() }
}

// TestAsyncFanoutReadYourWrites: with the broker-backed path, a compose
// returns at broker ack — before followers are hydrated — yet the author
// must see their own post immediately (it is prepended synchronously), and
// after the fanout group drains, every follower converges on it.
func TestAsyncFanoutReadYourWrites(t *testing.T) {
	sn, tokens := bootAsync(t, Config{}, 0, "alice", "bob", "carol")
	ctx := context.Background()
	for _, f := range []string{"bob", "carol"} {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f, Followee: "alice"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	post := compose(t, sn, tokens["alice"], "hello from the async path")

	// Read-your-writes: the author's timeline has the post the instant
	// compose returns, no drain needed.
	if posts := timeline(t, sn, "alice"); len(posts) != 1 || posts[0].ID != post.ID {
		t.Fatalf("author timeline = %+v, want own post immediately", posts)
	}

	// Followers converge once the consumer group drains the backlog.
	if err := sn.DrainFanout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, reader := range []string{"bob", "carol"} {
		posts := timeline(t, sn, reader)
		if len(posts) != 1 || posts[0].ID != post.ID {
			t.Fatalf("%s timeline after drain = %+v", reader, posts)
		}
	}
}

// brokerLayouts are the broker-tier shapes the delivery and shutdown tests
// run over: the consumers are the same mq.Serve workers on either, but a
// partitioned session merges one stream per shard where the single broker's
// is the stream itself.
var brokerLayouts = []struct {
	name      string
	cfg       Config
	consumers int
}{
	{"1-broker", Config{}, 3},
	{"2-shards-2-consumers", Config{BrokerShards: 2}, 2},
}

// TestAsyncFanoutManyPosts pushes a burst of composes through the broker and
// checks every follower timeline converges on all of them — at-least-once
// delivery with the shared consumer group never drops or double-counts a
// post under normal operation.
func TestAsyncFanoutManyPosts(t *testing.T) {
	for _, layout := range brokerLayouts {
		t.Run(layout.name, func(t *testing.T) {
			sn, tokens := bootAsync(t, layout.cfg, layout.consumers, "alice", "bob", "carol")
			ctx := context.Background()
			for _, f := range []string{"bob", "carol"} {
				if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f, Followee: "alice"}, nil); err != nil {
					t.Fatal(err)
				}
			}
			const n = 20
			ids := make(map[string]bool, n)
			for i := 0; i < n; i++ {
				ids[compose(t, sn, tokens["alice"], "burst post").ID] = true
			}
			if err := sn.DrainFanout(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, reader := range []string{"bob", "carol"} {
				posts := timeline(t, sn, reader)
				if len(posts) != n {
					t.Fatalf("%s sees %d posts, want %d", reader, len(posts), n)
				}
				seen := make(map[string]bool, n)
				for _, p := range posts {
					if !ids[p.ID] || seen[p.ID] {
						t.Fatalf("unexpected or repeated post %s in %s's timeline", p.ID, reader)
					}
					seen[p.ID] = true
				}
			}
		})
	}
}

// TestAsyncFanoutClose stops the consumer tier cleanly: Close returns (no
// deadlock against a worker parked on its standing push session) and a post
// composed afterwards still succeeds — the write path only needs the broker
// ack, not a live consumer.
func TestAsyncFanoutClose(t *testing.T) {
	for _, layout := range brokerLayouts {
		t.Run(layout.name, func(t *testing.T) {
			sn, tokens := bootAsync(t, layout.cfg, layout.consumers, "alice", "bob")
			ctx := context.Background()
			if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
				t.Fatal(err)
			}
			compose(t, sn, tokens["alice"], "before close")
			if err := sn.DrainFanout(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { sn.Close(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return; consumer stuck on its push session")
			}
			// The write path survives: compose returns at broker ack and the
			// author still reads their own write; the event just waits for a
			// consumer.
			post := compose(t, sn, tokens["alice"], "after close")
			if posts := timeline(t, sn, "alice"); len(posts) != 2 || posts[0].ID != post.ID {
				t.Fatalf("author timeline after close = %+v", posts)
			}
			if lag := sn.Broker.GroupLag(timelineTopic, fanoutGroup); lag != 1 {
				t.Fatalf("orphaned event lag = %d, want 1", lag)
			}
		})
	}
}

// TestScaledDownFanoutReplicaStopsConsuming: the control plane's scale-down
// is deregister, drain, close the replica's server — and the consumer must
// go with it, or the policy believes it removed capacity it did not. Two
// fanout replicas boot through the App's Spawn; after app.Stop takes one the
// broker must hold exactly one open push session for the group (the
// survivor's — a replica without a session is handed nothing), and the
// survivor alone must still deliver every event.
func TestScaledDownFanoutReplicaStopsConsuming(t *testing.T) {
	vtime.Run(t, func() {
		var sessions atomic.Int64 // Push streams open on the broker tier
		app := core.NewApp("social-scale", core.Options{
			RPCServerHook: func(service string, srv *rpc.Server) {
				if service != "social.broker" {
					return
				}
				// A stream's interceptor chain wraps its whole lifetime.
				srv.Use(func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
					if ctx.Method == "Push" {
						sessions.Add(1)
						defer sessions.Add(-1)
					}
					return next(ctx, payload)
				})
			},
		})
		sn, tokens, stop := bootAsyncOn(t, app, Config{}, 2, "alice", "bob")
		defer stop()
		ctx := context.Background()
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
			t.Fatal(err)
		}
		wantSessions := func(want int64) {
			t.Helper()
			vtime.Wait()
			if got := sessions.Load(); got != want {
				t.Fatalf("broker holds %d open push sessions for the fanout group, want %d", got, want)
			}
		}
		wantSessions(2)
		replicas, err := app.Registry.MustLookup("social.fanout")
		if err != nil || len(replicas) != 2 {
			t.Fatalf("fanout replicas = %v, %v; want 2", replicas, err)
		}
		if err := app.Stop("social.fanout", replicas[0]); err != nil {
			t.Fatal(err)
		}
		wantSessions(1)

		const n = 20
		for i := 0; i < n; i++ {
			compose(t, sn, tokens["alice"], "after scale-down")
		}
		if err := sn.DrainFanout(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if posts := timeline(t, sn, "bob"); len(posts) != n {
			t.Fatalf("bob sees %d posts, want %d", len(posts), n)
		}
		wantSessions(1)
	})
}
