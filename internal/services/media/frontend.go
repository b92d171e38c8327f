package media

import (
	"dsb/internal/rest"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// MoviePage is the composePage aggregation: everything the movie page
// shows, assembled from four tiers in parallel. Degraded marks a page served
// without its reviews because the review tier was unreachable — the
// non-critical hop the page sacrifices rather than failing outright.
type MoviePage struct {
	Movie    Movie        `json:"movie"`
	Plot     string       `json:"plot"`
	Cast     []CastMember `json:"cast"`
	Reviews  []Review     `json:"reviews"`
	Degraded bool         `json:"degraded,omitempty"`
}

type frontendDeps struct {
	user          svcutil.Caller
	movieID       svcutil.Caller
	movieDB       svcutil.Caller
	plot          svcutil.Caller
	composeReview svcutil.Caller
	movieReview   svcutil.Caller
	userReview    svcutil.Caller
	rent          svcutil.Caller
	recommender   svcutil.Caller
}

// registerFrontend installs the REST front door. GET /movies/{title} is the
// composePage path: movie info, plot, cast, and reviews fetched in parallel
// and merged, as the real service's page composer does. The reviews hop is
// non-critical: a failure there yields a Degraded page without reviews
// instead of an error.
func registerFrontend(srv *rest.Server, d frontendDeps) {
	accounts.HandleRegister(srv, d.user, 2000)
	accounts.HandleLogin(srv, d.user)

	srv.Handle("GET /movies/{title}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var movie GetMovieResp
		if err := d.movieID.Call(ctx, "Resolve", FindByTitleReq{Title: ctx.PathValue("title")}, &movie); err != nil {
			return nil, err
		}
		var page MoviePage
		page.Movie = movie.Movie

		err := svcutil.Parallel(3, 3, func(i int) error {
			switch i {
			case 0:
				var plot PlotResp
				err := d.plot.Call(ctx, "Get", PlotReq{PlotID: movie.Movie.PlotID}, &plot)
				page.Plot = plot.Text
				return err
			case 1:
				var cast CastResp
				err := d.movieDB.Call(ctx, "Cast", CastReq{MovieID: movie.Movie.ID}, &cast)
				page.Cast = cast.Cast
				return err
			}
			var reviews ReviewsResp
			if err := svcutil.CallBounded(ctx, d.movieReview, "List", ReviewsByMovieReq{MovieID: movie.Movie.ID, Limit: 10}, &reviews); err != nil {
				page.Degraded = true
			} else {
				page.Reviews = reviews.Reviews
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return page, nil
	})

	srv.Handle("POST /reviews", rest.Forward[ComposeReviewReq](d.composeReview, "Compose", func(r *ComposeReviewResp) any { return r.Review }))

	srv.Handle("GET /users/{name}/reviews", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp ReviewsResp
		if err := d.userReview.Call(ctx, "List", ReviewsByUserReq{Username: ctx.PathValue("name"), Limit: 20}, &resp); err != nil {
			return nil, err
		}
		return resp.Reviews, nil
	})

	srv.Handle("POST /rent", rest.Forward[RentReq](d.rent, "Rent", func(r *RentResp) any { return r.Rental }))

	srv.Handle("GET /recommend", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp MoviesResp
		if err := d.recommender.Call(ctx, "Recommend", RecommendMoviesReq{Token: ctx.Query("token"), Limit: 5}, &resp); err != nil {
			return nil, err
		}
		return resp.Movies, nil
	})
}
