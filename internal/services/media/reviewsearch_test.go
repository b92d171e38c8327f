package media

import (
	"context"
	"slices"
	"testing"

	"dsb/internal/core"
)

// TestDefaultServiceSet pins the deployment Config{} boots — the Figure 5
// system every committed number was taken on: a tier added to or dropped
// from the default fails here before it moves table1's live count.
func TestDefaultServiceSet(t *testing.T) {
	app := core.NewApp("media-names-test", core.Options{})
	t.Cleanup(func() { app.Close() })
	if _, err := New(app, Config{}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	want := []string{
		"media.composeReview", "media.db-plots", "media.db-rentals", "media.db-reviews",
		"media.db-users", "media.frontend", "media.mc-reviews", "media.mc-users",
		"media.movieDB", "media.movieID", "media.movieReview", "media.plot",
		"media.rating", "media.recommender", "media.rent", "media.reviewSearch",
		"media.reviewStorage", "media.streaming", "media.user", "media.userReview",
	}
	if got := app.Registry.Services(); !slices.Equal(got, want) {
		t.Fatalf("services = %q\nwant %q", got, want)
	}
}

// TestReviewFollowUpsVisibleAtCompose pins composeReview's contract end to
// end: the review's follow-ups — the rating aggregate fold and the text
// index — ride the write path, so all three reads reflect the review as soon
// as Compose returns.
func TestReviewFollowUpsVisibleAtCompose(t *testing.T) {
	m := bootMedia(t)
	token := register(t, m, "critic")
	ctx := context.Background()

	var resp ComposeReviewResp
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
		Token: token, MovieTitle: "The Heap", Text: "unforgettable allocation", Rating: 8,
	}, &resp); err != nil {
		t.Fatal(err)
	}

	var page MoviePage
	if err := m.Frontend.Do(ctx, "GET", "/movies/The Heap", nil, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Reviews) != 1 || page.Reviews[0].ID != resp.Review.ID {
		t.Fatalf("review list = %+v", page.Reviews)
	}
	var movie GetMovieResp
	if err := m.MovieDB.Call(ctx, "Get", GetMovieReq{ID: "mv-1"}, &movie); err != nil {
		t.Fatal(err)
	}
	if movie.Movie.NumRating != 1 || movie.Movie.AvgRating != 8 {
		t.Fatalf("aggregate = %+v", movie.Movie)
	}
	var found SearchReviewsResp
	if err := m.ReviewSearch.Call(ctx, "Search", SearchReviewsReq{Query: "unforgettable"}, &found); err != nil {
		t.Fatal(err)
	}
	if len(found.IDs) != 1 || found.IDs[0] != resp.Review.ID {
		t.Fatalf("search = %+v", found.IDs)
	}

	// A second review for the same movie folds into the same aggregate.
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
		Token: token, MovieTitle: "The Heap", Text: "heap of fun", Rating: 6,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.MovieDB.Call(ctx, "Get", GetMovieReq{ID: "mv-1"}, &movie); err != nil {
		t.Fatal(err)
	}
	if movie.Movie.NumRating != 2 || movie.Movie.AvgRating != 7 {
		t.Fatalf("aggregate after second review = %+v", movie.Movie)
	}
}
