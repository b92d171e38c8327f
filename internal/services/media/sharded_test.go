package media

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

// bootShardedMedia boots media with every docstore/kv tier running
// shards×replicas instances behind consistent-hash routing, seeded with one
// movie and one registered reviewer.
func bootShardedMedia(t *testing.T, app *core.App, shards, replicas int) (*Media, string) {
	t.Helper()
	m, err := New(app, Config{LayoutConfig: svcutil.LayoutConfig{Shards: shards, ShardReplicas: replicas}})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	cast := []CastMember{{Actor: "A. Pointer", Role: "lead"}}
	if err := m.SeedMovie(Movie{ID: "mv-1", Title: "The Heap", Year: 2019, Genre: "drama"}, "An allocator's tale.", cast, nil); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return m, register(t, m, "critic")
}

// TestShardedEndToEnd runs register → review → movie page on a
// 3-shard×2-replica storage layout: the services are byte-identical to the
// single-instance deployment, only the wiring changed.
func TestShardedEndToEnd(t *testing.T) {
	app := core.NewApp("media-sharded", core.Options{})
	t.Cleanup(func() { app.Close() })
	m, token := bootShardedMedia(t, app, 3, 2)
	ctx := context.Background()

	instances := m.App.Registry.Instances("media.db-reviews")
	if len(instances) != 6 {
		t.Fatalf("db-reviews has %d instances, want 6", len(instances))
	}
	labels := make(map[string]int)
	for _, inst := range instances {
		labels[inst.Meta[shard.MetaShard]]++
	}
	if len(labels) != 3 {
		t.Fatalf("db-reviews shard labels = %v, want 3 distinct", labels)
	}

	for i := 0; i < 8; i++ {
		var resp ComposeReviewResp
		if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
			Token: token, MovieTitle: "The Heap", Text: fmt.Sprintf("take %d", i), Rating: int64(i % 11),
		}, &resp); err != nil {
			t.Fatalf("compose %d: %v", i, err)
		}
	}
	var page MoviePage
	if err := m.Frontend.Do(ctx, "GET", "/movies/The Heap", nil, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Reviews) != 8 || page.Degraded {
		t.Fatalf("page reviews=%d degraded=%v, want 8/false", len(page.Reviews), page.Degraded)
	}
}

// TestShardedSurvivesReplicaFault errors the first replica of each
// db-reviews shard: with two replicas per shard, reads fall over to the
// healthy sibling and the review list stays complete.
func TestShardedSurvivesReplicaFault(t *testing.T) {
	inj := fault.NewInjector(11)
	app := core.NewApp("media-sharded-fault", core.Options{Network: inj.Wrap(rpc.NewMem())})
	t.Cleanup(func() { app.Close() })
	m, token := bootShardedMedia(t, app, 2, 2)
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		var resp ComposeReviewResp
		if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
			Token: token, MovieTitle: "The Heap", Text: fmt.Sprintf("take %d", i), Rating: 7,
		}, &resp); err != nil {
			t.Fatalf("compose %d: %v", i, err)
		}
	}

	seen := make(map[string]bool)
	for _, inst := range m.App.Registry.Instances("media.db-reviews") {
		label := inst.Meta[shard.MetaShard]
		if seen[label] {
			continue
		}
		seen[label] = true
		defer inj.Add(fault.Rule{To: "media.db-reviews", Addr: inst.Addr, ErrCode: rpc.CodeUnavailable})()
	}

	var page MoviePage
	err := m.Frontend.Do(ctx, "GET", "/movies/The Heap", nil, &page)
	if err != nil || len(page.Reviews) != 6 || page.Degraded {
		t.Fatalf("movie page under replica fault: err=%v reviews=%d degraded=%v", err, len(page.Reviews), page.Degraded)
	}
}

// TestMoviePageDegradesWithoutReviews kills the whole review tier: the page
// still renders (movie, plot, cast) flagged Degraded.
func TestMoviePageDegradesWithoutReviews(t *testing.T) {
	boot := func(t *testing.T) (*Media, *fault.Injector) {
		inj := fault.NewInjector(13)
		app := core.NewApp("media-degrade", core.Options{Network: inj.Wrap(rpc.NewMem())})
		t.Cleanup(func() { app.Close() })
		m, err := New(app, Config{})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		cast := []CastMember{{Actor: "A. Pointer", Role: "lead"}}
		if err := m.SeedMovie(Movie{ID: "mv-1", Title: "The Heap", Year: 2019, Genre: "drama"}, "An allocator's tale.", cast, nil); err != nil {
			t.Fatalf("seed: %v", err)
		}
		return m, inj
	}

	t.Run("degraded", func(t *testing.T) {
		m, inj := boot(t)
		defer inj.Add(fault.Rule{To: "media.movieReview", ErrCode: rpc.CodeUnavailable})()
		var page MoviePage
		if err := m.Frontend.Do(context.Background(), "GET", "/movies/The Heap", nil, &page); err != nil {
			t.Fatalf("degraded page should still serve: %v", err)
		}
		if !page.Degraded || len(page.Reviews) != 0 {
			t.Fatalf("page degraded=%v reviews=%d, want true/0", page.Degraded, len(page.Reviews))
		}
		if page.Movie.ID != "mv-1" || page.Plot == "" || len(page.Cast) != 1 {
			t.Fatalf("critical fields missing from degraded page: %+v", page)
		}
	})
}
