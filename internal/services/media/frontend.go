package media

import (
	"sync"

	"dsb/internal/rest"
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

// ReviewBody is the POST /reviews request.
type ReviewBody struct {
	Token  string `json:"token"`
	Title  string `json:"title"`
	Text   string `json:"text"`
	Rating int64  `json:"rating"`
}

// RentBody is the POST /rent request.
type RentBody struct {
	Token   string `json:"token"`
	MovieID string `json:"movie_id"`
}

// CredentialsBody is the register/login request.
type CredentialsBody struct {
	Username string `json:"username"`
	Password string `json:"password"`
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
	srv.Handle("POST /register", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CredentialsBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		return nil, d.user.Call(ctx, "Register", RegisterUserReq{Username: req.Username, Password: req.Password, BalanceCents: 2000}, nil)
	})
	srv.Handle("POST /login", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CredentialsBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp LoginResp
		if err := d.user.Call(ctx, "Login", LoginReq{Username: req.Username, Password: req.Password}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})

	srv.Handle("GET /movies/{title}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var movie GetMovieResp
		if err := d.movieID.Call(ctx, "Resolve", FindByTitleReq{Title: ctx.PathValue("title")}, &movie); err != nil {
			return nil, err
		}
		var page MoviePage
		page.Movie = movie.Movie

		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		wg.Add(3)
		go func() {
			defer wg.Done()
			var plot PlotResp
			if err := d.plot.Call(ctx, "Get", PlotReq{PlotID: movie.Movie.PlotID}, &plot); err != nil {
				fail(err)
				return
			}
			page.Plot = plot.Text
		}()
		go func() {
			defer wg.Done()
			var cast CastResp
			if err := d.movieDB.Call(ctx, "Cast", CastReq{MovieID: movie.Movie.ID}, &cast); err != nil {
				fail(err)
				return
			}
			page.Cast = cast.Cast
		}()
		go func() {
			defer wg.Done()
			var reviews ReviewsResp
			if err := svcutil.CallBounded(ctx, d.movieReview, "List", ReviewsByMovieReq{MovieID: movie.Movie.ID, Limit: 10}, &reviews); err != nil {
				mu.Lock()
				page.Degraded = true
				mu.Unlock()
				return
			}
			page.Reviews = reviews.Reviews
		}()
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		return page, nil
	})

	srv.Handle("POST /reviews", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req ReviewBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp ComposeReviewResp
		if err := d.composeReview.Call(ctx, "Compose", ComposeReviewReq{
			Token: req.Token, MovieTitle: req.Title, Text: req.Text, Rating: req.Rating,
		}, &resp); err != nil {
			return nil, err
		}
		return resp.Review, nil
	})

	srv.Handle("GET /users/{name}/reviews", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp ReviewsResp
		if err := d.userReview.Call(ctx, "List", ReviewsByUserReq{Username: ctx.PathValue("name"), Limit: 20}, &resp); err != nil {
			return nil, err
		}
		return resp.Reviews, nil
	})

	srv.Handle("POST /rent", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req RentBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp RentResp
		if err := d.rent.Call(ctx, "Rent", RentReq{Token: req.Token, MovieID: req.MovieID}, &resp); err != nil {
			return nil, err
		}
		return resp.Rental, nil
	})

	srv.Handle("GET /recommend", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp MoviesResp
		if err := d.recommender.Call(ctx, "Recommend", RecommendMoviesReq{Token: ctx.Query("token"), Limit: 5}, &resp); err != nil {
			return nil, err
		}
		return resp.Movies, nil
	})
}
