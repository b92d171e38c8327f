package media

import (
	"context"
	"fmt"
	"time"

	"dsb/internal/blobstore"
	"dsb/internal/core"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// Config sizes the deployment.
type Config struct {
	// LayoutConfig shards and replicates the store and cache tiers and
	// carries the inter-tier middleware.
	svcutil.LayoutConfig
}

// replicable names the logic tiers safe to run multi-instance: their state
// lives in the db/mc tiers (or MovieDB's shared database). composeReview
// (per-process review ID sequence) and reviewSearch (in-process index) stay
// single-instance.
var replicable = map[string]bool{
	"movieDB": true, "plot": true, "user": true, "movieID": true,
	"rating": true, "reviewStorage": true, "movieReview": true,
	"userReview": true, "rent": true, "recommender": true,
}

// Media is a running Media Service deployment.
type Media struct {
	App       *core.App
	Frontend  *rest.Client
	Streaming *rest.Client
	Films     *blobstore.Store // movie files, written by SeedMovie

	MovieDB       svcutil.Caller
	ComposeReview svcutil.Caller
	User          svcutil.Caller
	Rent          svcutil.Caller
	ReviewSearch  svcutil.Caller
}

// New boots the Media Service.
func New(app *core.App, cfg Config) (*Media, error) {
	// MovieDB's database is shared by every movieDB replica, as BankInfoDB
	// is by Banking's; the docstore/kv tiers shard through the shared Stack
	// like every other app in the suite.
	movieDB, err := newMovieDB()
	if err != nil {
		return nil, err
	}
	stack := cfg.Stack(app, "media.", replicable)
	if err := stack.StartStores("db-reviews", "db-users", "db-plots", "db-rentals"); err != nil {
		return nil, err
	}
	if err := stack.StartCaches("mc-reviews", "mc-users"); err != nil {
		return nil, err
	}

	cl, db, mc, start := stack.Caller, stack.DB, stack.KV, stack.Start

	m := &Media{App: app}

	start("movieDB", func(s *rpc.Server) { registerMovieDB(s, movieDB) })
	start("plot", func(s *rpc.Server) {
		registerPlot(s, db("plot", "db-plots"))
	})
	start("user", func(s *rpc.Server) {
		registerUser(s, db("user", "db-users"), mc("user", "mc-users"))
	})
	start("movieID", func(s *rpc.Server) {
		registerMovieID(s, cl("movieID", "movieDB"))
	})
	start("rating", registerRating)
	start("reviewStorage", func(s *rpc.Server) {
		registerReviewStorage(s, db("reviewStorage", "db-reviews"), mc("reviewStorage", "mc-reviews"))
	})
	// The review text index boots before movieReview, its downstream.
	start("reviewSearch", registerReviewSearch)
	start("movieReview", func(s *rpc.Server) {
		registerMovieReview(s, cl("movieReview", "reviewStorage"),
			cl("movieReview", "movieDB"), cl("movieReview", "reviewSearch"))
	})
	start("userReview", func(s *rpc.Server) {
		registerUserReview(s, cl("userReview", "reviewStorage"))
	})
	start("composeReview", func(s *rpc.Server) {
		registerComposeReview(s, composeReviewDeps{
			user:        cl("composeReview", "user"),
			movieID:     cl("composeReview", "movieID"),
			rating:      cl("composeReview", "rating"),
			movieReview: cl("composeReview", "movieReview"),
		})
	})
	start("rent", func(s *rpc.Server) {
		registerRent(s, cl("rent", "user"), db("rent", "db-rentals"))
	})
	start("recommender", func(s *rpc.Server) {
		registerRecommender(s, cl("recommender", "user"), cl("recommender", "userReview"), cl("recommender", "movieDB"))
	})
	if err := stack.Boot(); err != nil {
		return nil, fmt.Errorf("media: boot: %w", err)
	}

	// Streaming tier (nginx-hls) with its NFS-equivalent blob store.
	films := blobstore.New()
	if _, err := app.StartREST("media.streaming", func(s *rest.Server) {
		registerStreaming(s, films, cl("streaming", "rent"))
	}); err != nil {
		return nil, err
	}
	if _, err := app.StartREST("media.frontend", func(s *rest.Server) {
		registerFrontend(s, frontendDeps{
			user:          cl("frontend", "user"),
			movieID:       cl("frontend", "movieID"),
			movieDB:       cl("frontend", "movieDB"),
			plot:          cl("frontend", "plot"),
			composeReview: cl("frontend", "composeReview"),
			movieReview:   cl("frontend", "movieReview"),
			userReview:    cl("frontend", "userReview"),
			rent:          cl("frontend", "rent"),
			recommender:   cl("frontend", "recommender"),
		})
	}); err != nil {
		return nil, err
	}

	m.Films = films
	if m.Frontend, err = app.REST("client", "media.frontend"); err != nil {
		return nil, err
	}
	if m.Streaming, err = app.REST("client", "media.streaming"); err != nil {
		return nil, err
	}
	if m.MovieDB, err = app.RPC("client", "media.movieDB"); err != nil {
		return nil, err
	}
	if m.ComposeReview, err = app.RPC("client", "media.composeReview"); err != nil {
		return nil, err
	}
	if m.User, err = app.RPC("client", "media.user"); err != nil {
		return nil, err
	}
	if m.Rent, err = app.RPC("client", "media.rent"); err != nil {
		return nil, err
	}
	if m.ReviewSearch, err = app.RPC("client", "media.reviewSearch"); err != nil {
		return nil, err
	}
	return m, nil
}

// SeedMovie inserts a movie (metadata, plot, cast) and stores its file in
// the blob store for streaming.
func (m *Media) SeedMovie(movie Movie, plot string, cast []CastMember, file []byte) error {
	ctx, cancel := contextWithTimeout()
	defer cancel()
	if movie.PlotID == "" {
		movie.PlotID = "plot-" + movie.ID
	}
	if err := m.MovieDB.Call(ctx, "Add", AddMovieReq{Movie: movie, Cast: cast}, nil); err != nil {
		return err
	}
	plotClient, err := m.App.RPC("seeder", "media.plot")
	if err != nil {
		return err
	}
	if err := plotClient.Call(ctx, "Put", PutPlotReq{PlotID: movie.PlotID, Text: plot}, nil); err != nil {
		return err
	}
	if len(file) > 0 {
		if _, err := m.Films.Put(movie.ID, file); err != nil {
			return err
		}
	}
	return nil
}

func contextWithTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}
