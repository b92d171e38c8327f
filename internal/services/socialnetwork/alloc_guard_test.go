package socialnetwork

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"dsb/internal/core"
)

// timelinePageBudget is the pinned object count of one warmed timeline page
// (see TestTimelinePageAllocGuard), as measured: no slack for a regression to
// hide in.
const timelinePageBudget = 96

// TestTimelinePageAllocGuard pins what one warmed GET /timeline/{user} — a
// 20-post page, empty block list, every id and post a cache hit — allocates
// end to end over rpc.Mem: the REST exchange, the eight inter-tier hops and
// the one place the page is still materialised, the caller's []Post. Between
// the post cache and the caller the page travels as bytes: postStorage
// splices the cached posts into its reply straight from the MGet's, readPost
// forwards it, readTimeline drops blocked authors' posts from it without
// decoding it, and the front end transcodes it to JSON. The page's IDs travel
// as bytes too, from the timeline cache to postStorage.
func TestTimelinePageAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	sn, tokens := bootWith(t, core.Options{DisableTracing: true}, Config{SearchShards: 1, DisableDegradation: true}, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		compose(t, sn, tokens["alice"], fmt.Sprintf("post %06x by alice hello @bob see https://dsb.example/a/%d", i, i))
	}

	var scratch []Post
	call := func() {
		posts := scratch[:0]
		if err := sn.Frontend.Do(ctx, "GET", "/timeline/bob", nil, &posts); err != nil {
			t.Fatal(err)
		}
		if len(posts) != 20 {
			t.Fatalf("page has %d posts, want 20", len(posts))
		}
		scratch = posts
	}
	for i := 0; i < 2000; i++ {
		call()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := 1 << 30
	for i := 0; i < 5; i++ {
		if got := int(testing.AllocsPerRun(200, call)); got < best {
			best = got
		}
	}
	t.Logf("timeline page: %d objects", best)
	if best > timelinePageBudget {
		t.Errorf("one timeline page allocates %d objects, want ≤%d", best, timelinePageBudget)
	}
}
