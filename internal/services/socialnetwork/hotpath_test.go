package socialnetwork

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/core"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// Regression for the corrupt-timeline-cache bug: readTimeline used to
// ignore the decode error on a cached "tl:" value, so a partially decoded
// entry (non-nil garbage IDs) shadowed the real timeline on every read and
// the authoritative-store fallback never ran. A poisoned entry must now be
// purged and the timeline served from the store.
func TestCorruptTimelineCacheFallsBackToStore(t *testing.T) {
	sn, tokens := boot(t, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	post := compose(t, sn, tokens["alice"], "the real post")
	// Warm and then poison bob's timeline-ID cache entry: a valid []string
	// encoding with a trailing junk byte decodes into non-nil garbage IDs
	// and an error — exactly the partial decode the old code trusted.
	mcCaller, err := sn.App.RPC("test", "social.mc-timeline")
	if err != nil {
		t.Fatal(err)
	}
	mc := svcutil.KV{C: mcCaller}
	enc, err := codec.Marshal([]string{"bogus-post-id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Set(ctx, "tl:bob", append(enc, 0x00), 0); err != nil {
		t.Fatal(err)
	}

	posts := timeline(t, sn, "bob")
	if len(posts) != 1 || posts[0].ID != post.ID {
		t.Fatalf("timeline = %+v, want the real post (corrupt cache entry served?)", posts)
	}
	// The poisoned entry was purged and replaced with the store's truth.
	if v, found, err := mc.Get(ctx, "tl:bob"); err != nil {
		t.Fatal(err)
	} else if found {
		var ids []string
		if err := codec.Unmarshal(v, &ids); err != nil || len(ids) != 1 || ids[0] != post.ID {
			t.Fatalf("cached ids = %v, %v (corrupt entry not purged)", ids, err)
		}
	}
}

// Regression for the lost-append bug: writeTimeline's fan-out used to
// read-modify-write each timeline document without any guard, so two posts
// landing on one follower's timeline concurrently could each read the same
// base list and one append would vanish. With the atomic ListPrepend every
// concurrent append must survive.
func TestConcurrentAppendsNoLostPosts(t *testing.T) {
	sn, _ := boot(t, "alice")
	ctx := context.Background()

	const posts = 16
	var wg sync.WaitGroup
	errs := make(chan error, posts)
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := AppendTimelineReq{Author: "alice", PostID: fmt.Sprintf("post-%02d", i), Ts: int64(i)}
			var caller svcutil.Caller
			caller, err := sn.App.RPC("test", "social.writeTimeline")
			if err != nil {
				errs <- err
				return
			}
			if err := caller.Call(ctx, "Append", req, nil); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Read the timeline document straight from the store: every append must
	// be present exactly once.
	dbCaller, err := sn.App.RPC("test", "social.db-timeline")
	if err != nil {
		t.Fatal(err)
	}
	doc, found, err := svcutil.DB{C: dbCaller}.Get(ctx, "timelines", "tl:alice")
	if err != nil || !found {
		t.Fatalf("timeline doc: found=%v err=%v", found, err)
	}
	var ids []string
	if err := codec.Unmarshal(doc.Body, &ids); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	if len(ids) != posts || len(seen) != posts {
		t.Fatalf("timeline has %d entries (%d distinct), want %d — concurrent appends lost", len(ids), len(seen), posts)
	}
}

// A corrupt "post:" value inside a batch read must cost exactly one
// refetch: the page is complete, the other posts come from the one MGet,
// and the poisoned entry is purged and replaced by the store's encoding —
// the ReadPath invariant, held on the batched hydration path
// readTimeline → readPost → postStorage.
func TestCorruptPostInBatchIsPurged(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	record := func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			mu.Lock()
			calls[call.Target+"."+call.Method]++
			mu.Unlock()
			return next(ctx, call)
		}
	}
	sn, tokens := bootWith(t, core.Options{}, Config{SearchShards: 2, Middleware: []transport.Middleware{record}}, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	const page = 20
	want := make([]Post, page)
	for i := page - 1; i >= 0; i-- { // newest first on the timeline
		want[i] = compose(t, sn, tokens["alice"], fmt.Sprintf("post %d hello @bob see https://dsb.example/a/%d", i, i))
	}
	if got := timeline(t, sn, "bob"); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm read = %+v, want %+v", got, want)
	}

	mcCaller, err := sn.App.RPC("test", "social.mc-posts")
	if err != nil {
		t.Fatal(err)
	}
	mc := svcutil.KV{C: mcCaller}
	victim := want[7]
	good, err := codec.Marshal(victim)
	if err != nil {
		t.Fatal(err)
	}
	if v, found, err := mc.Get(ctx, "post:"+victim.ID); err != nil || !found || !bytes.Equal(v, good) {
		t.Fatalf("cached post before poisoning: found=%v err=%v", found, err)
	}
	if err := mc.Set(ctx, "post:"+victim.ID, good[:len(good)-3], 0); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	clear(calls)
	mu.Unlock()
	if got := timeline(t, sn, "bob"); !reflect.DeepEqual(got, want) {
		t.Fatalf("read over a corrupt entry = %+v, want the complete page %+v", got, want)
	}
	mu.Lock()
	mget, refetch, total := calls["social.mc-posts.MGet"], calls["social.db-posts.Get"], 0
	for k, n := range calls {
		if strings.HasPrefix(k, "social.db-posts.") {
			total += n
		}
	}
	mu.Unlock()
	if mget != 1 || refetch != 1 || total != 1 {
		t.Fatalf("batch read made %d MGets and %d store reads (%d store calls), want 1 and 1: %v", mget, refetch, total, calls)
	}
	if v, found, err := mc.Get(ctx, "post:"+victim.ID); err != nil || !found || !bytes.Equal(v, good) {
		t.Fatalf("cached post after the read: found=%v err=%v value=%x, want the store's encoding %x", found, err, v, good)
	}
}

// The spliced ReadBatch reply must be the typed encoding of ReadPostsResp
// whatever the batch holds: posts the store no longer has are dropped and
// the count in front rewritten — narrower here, 130 ids asked and 3 found —
// and a batch of one skips the MGet altogether.
func TestReadBatchReplyIsTypedEncoding(t *testing.T) {
	sn, tokens := boot(t, "alice")
	ctx := context.Background()
	posts := []Post{compose(t, sn, tokens["alice"], "one"), compose(t, sn, tokens["alice"], "two @alice"), compose(t, sn, tokens["alice"], "three")}
	readPost, err := sn.App.RPC("test", "social.readPost")
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		ghosts int
		want   []Post
	}{"all found": {0, posts}, "ghosts between": {127, posts}, "only ghosts": {3, nil}, "single": {0, posts[:1]}, "empty": {0, nil}} {
		var ids []string
		for _, p := range tc.want {
			ids = append(ids, p.ID)
			for g := 0; g < tc.ghosts; g++ {
				ids = append(ids, fmt.Sprintf("ghost-%d-%s", g, p.ID))
			}
		}
		if tc.want == nil {
			for g := 0; g < tc.ghosts; g++ {
				ids = append(ids, fmt.Sprintf("ghost-%d", g))
			}
		}
		req, err := codec.Marshal(ReadPostsReq{IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		call := transport.NewCall("social.readPost", "Read", req)
		if err := readPost.Invoke(ctx, call); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := call.Reply
		want, err := codec.Marshal(ReadPostsResp{Posts: append([]Post{}, tc.want...)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: relayed reply %x\nwant typed encoding %x", name, got, want)
		}
	}
	if err := readPost.Call(ctx, "Read", "not a ReadPostsReq, and far too long to be one", nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("malformed batch request: %v, want CodeBadRequest", err)
	}
}
