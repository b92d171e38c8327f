package media

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

func docstoreDoc(id string, body []byte) docstore.Doc {
	return docstore.Doc{ID: id, Body: body}
}

// ComposeReviewReq creates a review for a movie identified by title. It is
// also the JSON body of POST /reviews.
type ComposeReviewReq struct {
	Token      string `json:"token"`
	MovieTitle string `json:"title"`
	Text       string `json:"text"`
	Rating     int64  `json:"rating"`
}

// ComposeReviewResp returns the stored review.
type ComposeReviewResp struct{ Review Review }

// StoreReviewReq persists a finished review.
type StoreReviewReq struct{ Review Review }

// ReviewsByMovieReq lists a movie's reviews, newest first.
type ReviewsByMovieReq struct {
	MovieID string
	Limit   int64
}

// ReviewsByUserReq lists a user's reviews, newest first.
type ReviewsByUserReq struct {
	Username string
	Limit    int64
}

// ReviewsResp returns reviews.
type ReviewsResp struct{ Reviews []Review }

const reviewCacheTTL = 5 * time.Minute

// registerReviewStorage installs the reviewStorage service: the system of
// record for reviews (memcached + MongoDB pair in Figure 5). The per-movie
// review list — the hottest read in the app, hit once per movie-page
// composition — runs through the shared cache-aside ReadPath: cached under
// "movie-reviews:<id>" (invalidated by Store), with concurrent misses on one
// movie coalesced into a single backing Find.
func registerReviewStorage(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Store", func(ctx *rpc.Ctx, req *StoreReviewReq) (*struct{}, error) {
		r := req.Review
		if r.ID == "" || r.MovieID == "" || r.Username == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "reviewStorage: incomplete review")
		}
		body, err := codec.Marshal(r)
		if err != nil {
			return nil, err
		}
		doc := docstore.Doc{
			ID:     r.ID,
			Fields: map[string]string{"movie": r.MovieID, "user": r.Username},
			Body:   body,
		}
		if err := db.Put(ctx, "reviews", doc); err != nil {
			return nil, err
		}
		mc.Set(ctx, "review:"+r.ID, body, reviewCacheTTL) //nolint:errcheck
		// Invalidate the movie's cached review list.
		mc.Delete(ctx, "movie-reviews:"+r.MovieID) //nolint:errcheck
		return nil, nil
	})

	list := func(ctx context.Context, field, value string, limit int) ([]Review, error) {
		docs, err := db.Find(ctx, "reviews", field, value, 0)
		if err != nil {
			return nil, err
		}
		out := make([]Review, 0, len(docs))
		for _, d := range docs {
			var r Review
			if err := codec.Unmarshal(d.Body, &r); err != nil {
				return nil, fmt.Errorf("reviewStorage: corrupt review %s: %w", d.ID, err)
			}
			out = append(out, r)
		}
		// Newest first.
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out, nil
	}

	byMovie := &svcutil.ReadPath[[]Review]{
		MC:  mc,
		TTL: reviewCacheTTL,
		Decode: func(b []byte) ([]Review, error) {
			var cached ReviewsResp
			if err := codec.Unmarshal(b, &cached); err != nil {
				return nil, err
			}
			return cached.Reviews, nil
		},
		Fetch: func(ctx context.Context, key string) ([]Review, []byte, bool, error) {
			movieID := strings.TrimPrefix(key, "movie-reviews:")
			reviews, err := list(ctx, "movie", movieID, 0)
			if err != nil {
				return nil, nil, false, err
			}
			enc, err := codec.Marshal(ReviewsResp{Reviews: reviews})
			if err != nil {
				return nil, nil, false, err
			}
			return reviews, enc, true, nil
		},
	}
	svcutil.Handle(srv, "ByMovie", func(ctx *rpc.Ctx, req *ReviewsByMovieReq) (*ReviewsResp, error) {
		reviews, _, err := byMovie.Get(ctx, "movie-reviews:"+req.MovieID)
		if err != nil {
			return nil, err
		}
		if limit := int(req.Limit); limit > 0 && len(reviews) > limit {
			reviews = reviews[:limit]
		}
		return &ReviewsResp{Reviews: reviews}, nil
	})
	svcutil.Handle(srv, "ByUser", func(ctx *rpc.Ctx, req *ReviewsByUserReq) (*ReviewsResp, error) {
		reviews, err := list(ctx, "user", req.Username, int(req.Limit))
		if err != nil {
			return nil, err
		}
		return &ReviewsResp{Reviews: reviews}, nil
	})
}

// registerMovieReview installs the movieReview service, which maintains the
// per-movie review index, folds ratings into MovieDB's aggregate, and feeds
// the review text index, all on the write path (Figure 5): the review list,
// the aggregate and the index reflect a review when Record returns.
func registerMovieReview(srv *rpc.Server, storage, movieDB, search svcutil.Caller) {
	svcutil.Handle(srv, "Record", func(ctx *rpc.Ctx, req *StoreReviewReq) (*struct{}, error) {
		if err := storage.Call(ctx, "Store", *req, nil); err != nil {
			return nil, err
		}
		if err := movieDB.Call(ctx, "Rate", RateMovieReq{MovieID: req.Review.MovieID, Rating: req.Review.Rating}, nil); err != nil {
			return nil, err
		}
		return nil, search.Call(ctx, "Index", IndexReviewReq{Review: req.Review}, nil)
	})
	svcutil.Handle(srv, "List", func(ctx *rpc.Ctx, req *ReviewsByMovieReq) (*ReviewsResp, error) {
		var resp ReviewsResp
		err := storage.Call(ctx, "ByMovie", *req, &resp)
		return &resp, err
	})
}

// registerUserReview installs the userReview service (per-user review
// history).
func registerUserReview(srv *rpc.Server, storage svcutil.Caller) {
	svcutil.Handle(srv, "List", func(ctx *rpc.Ctx, req *ReviewsByUserReq) (*ReviewsResp, error) {
		var resp ReviewsResp
		err := storage.Call(ctx, "ByUser", *req, &resp)
		return &resp, err
	})
}

// RatingReq validates and normalizes a raw rating.
type RatingReq struct{ Rating int64 }

// RatingResp returns the accepted rating.
type RatingResp struct{ Rating int64 }

// registerRating installs the text/rating validation tier of the
// composeReview pipeline.
func registerRating(srv *rpc.Server) {
	svcutil.Handle(srv, "Validate", func(ctx *rpc.Ctx, req *RatingReq) (*RatingResp, error) {
		if req.Rating < 0 || req.Rating > 10 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "rating: %d out of [0,10]", req.Rating)
		}
		return &RatingResp{Rating: req.Rating}, nil
	})
	svcutil.Handle(srv, "ValidateText", func(ctx *rpc.Ctx, req *PlotResp) (*PlotResp, error) {
		text := strings.TrimSpace(req.Text)
		if text == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "rating: empty review text")
		}
		if len(text) > 8192 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "rating: review too long")
		}
		return &PlotResp{Text: text}, nil
	})
}

// composeReviewDeps are the tiers composeReview orchestrates.
type composeReviewDeps struct {
	user        svcutil.Caller
	movieID     svcutil.Caller
	rating      svcutil.Caller
	movieReview svcutil.Caller
}

// registerComposeReview installs the composeReview orchestrator: token
// verification, title resolution via movieID, text/rating validation, then
// the movieReview record path (reviewStorage + MovieDB aggregate).
func registerComposeReview(srv *rpc.Server, deps composeReviewDeps) {
	var seq atomic.Uint64
	svcutil.Handle(srv, "Compose", func(ctx *rpc.Ctx, req *ComposeReviewReq) (*ComposeReviewResp, error) {
		username, err := accounts.Verify(ctx, deps.user, req.Token)
		if err != nil {
			return nil, err
		}
		var movie GetMovieResp
		if err := deps.movieID.Call(ctx, "Resolve", FindByTitleReq{Title: req.MovieTitle}, &movie); err != nil {
			return nil, err
		}
		var text PlotResp
		if err := deps.rating.Call(ctx, "ValidateText", PlotResp{Text: req.Text}, &text); err != nil {
			return nil, err
		}
		var rating RatingResp
		if err := deps.rating.Call(ctx, "Validate", RatingReq{Rating: req.Rating}, &rating); err != nil {
			return nil, err
		}
		now := time.Now()
		review := Review{
			ID:        fmt.Sprintf("rev-%d-%d", now.UnixMilli(), seq.Add(1)),
			MovieID:   movie.Movie.ID,
			Username:  username,
			Text:      text.Text,
			Rating:    rating.Rating,
			CreatedAt: now.UnixNano(),
		}
		if err := deps.movieReview.Call(ctx, "Record", StoreReviewReq{Review: review}, nil); err != nil {
			return nil, err
		}
		return &ComposeReviewResp{Review: review}, nil
	})
}

// registerMovieID installs the movieID resolution tier (title → movie).
func registerMovieID(srv *rpc.Server, movieDB svcutil.Caller) {
	svcutil.Handle(srv, "Resolve", func(ctx *rpc.Ctx, req *FindByTitleReq) (*GetMovieResp, error) {
		var resp GetMovieResp
		err := movieDB.Call(ctx, "FindByTitle", *req, &resp)
		return &resp, err
	})
}
