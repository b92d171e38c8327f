package media

import (
	"encoding/base64"
	"sort"

	"dsb/internal/blobstore"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// ManifestBody is the HLS-style playlist: how many segments to fetch.
type ManifestBody struct {
	MovieID  string `json:"movie_id"`
	Segments int    `json:"segments"`
	Size     int64  `json:"size"`
	Checksum uint32 `json:"checksum"`
}

// SegmentBody carries one streaming segment.
type SegmentBody struct {
	Index int    `json:"index"`
	Data  string `json:"data"` // base64
}

// registerStreaming installs the video-streaming tier — the nginx-hls
// module of Figure 5: it validates the rental lease on every request and
// serves the movie file from the NFS-equivalent blob store in chunks.
func registerStreaming(srv *rest.Server, store *blobstore.Store, rent svcutil.Caller) {
	validate := func(ctx *rest.Ctx, movieID string) error {
		lease := ctx.Query("lease")
		var resp ValidateLeaseResp
		if err := rent.Call(ctx, "ValidateLease", ValidateLeaseReq{Token: lease, MovieID: movieID}, &resp); err != nil {
			return err
		}
		if !resp.Valid {
			return rpc.Errorf(rpc.CodeUnauthorized, "streaming: invalid or expired lease")
		}
		return nil
	}

	srv.Handle("GET /stream/{movie}/manifest", func(ctx *rest.Ctx, body []byte) (any, error) {
		movieID := ctx.PathValue("movie")
		if err := validate(ctx, movieID); err != nil {
			return nil, err
		}
		meta, err := store.Stat(movieID)
		if err != nil {
			return nil, err
		}
		return ManifestBody{MovieID: movieID, Segments: meta.Chunks, Size: meta.Size, Checksum: meta.Checksum}, nil
	})

	srv.Handle("GET /stream/{movie}/segment/{idx}", func(ctx *rest.Ctx, body []byte) (any, error) {
		movieID := ctx.PathValue("movie")
		if err := validate(ctx, movieID); err != nil {
			return nil, err
		}
		idx := 0
		for _, c := range ctx.PathValue("idx") {
			if c < '0' || c > '9' {
				return nil, rpc.Errorf(rpc.CodeBadRequest, "streaming: bad segment index")
			}
			idx = idx*10 + int(c-'0')
		}
		chunk, err := store.Chunk(movieID, idx)
		if err != nil {
			return nil, err
		}
		return SegmentBody{Index: idx, Data: base64.StdEncoding.EncodeToString(chunk)}, nil
	})
}

// RecommendMoviesReq asks for movies a user may like.
type RecommendMoviesReq struct {
	Token string
	Limit int64
}

// registerRecommender installs the movie recommender: the user's review
// history is aggregated into per-genre affinity (mean rating weighted by
// count), and the top genres' highest-rated unseen movies are returned.
func registerRecommender(srv *rpc.Server, user, userReview, movieDB svcutil.Caller) {
	svcutil.Handle(srv, "Recommend", func(ctx *rpc.Ctx, req *RecommendMoviesReq) (*MoviesResp, error) {
		username, err := accounts.Verify(ctx, user, req.Token)
		if err != nil {
			return nil, err
		}
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 5
		}
		var history ReviewsResp
		if err := userReview.Call(ctx, "List", ReviewsByUserReq{Username: username, Limit: 100}, &history); err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		genreSum := make(map[string]int64)
		genreCount := make(map[string]int64)
		for _, r := range history.Reviews {
			seen[r.MovieID] = true
			var movie GetMovieResp
			if err := movieDB.Call(ctx, "Get", GetMovieReq{ID: r.MovieID}, &movie); err != nil {
				continue // rated movie may have been removed
			}
			genreSum[movie.Movie.Genre] += r.Rating
			genreCount[movie.Movie.Genre]++
		}
		type affinity struct {
			genre string
			score float64
		}
		var ranked []affinity
		for g, sum := range genreSum {
			ranked = append(ranked, affinity{g, float64(sum) / float64(genreCount[g])})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].genre < ranked[j].genre
		})
		var out []Movie
		for _, aff := range ranked {
			if len(out) >= limit {
				break
			}
			var movies MoviesResp
			if err := movieDB.Call(ctx, "ByGenre", ByGenreReq{Genre: aff.genre, Limit: 50}, &movies); err != nil {
				return nil, err
			}
			candidates := movies.Movies
			sort.Slice(candidates, func(i, j int) bool { return candidates[i].AvgRating > candidates[j].AvgRating })
			for _, m := range candidates {
				if !seen[m.ID] {
					out = append(out, m)
					if len(out) >= limit {
						break
					}
				}
			}
		}
		return &MoviesResp{Movies: out}, nil
	})
}
