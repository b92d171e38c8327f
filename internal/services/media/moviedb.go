package media

import (
	"strconv"

	"dsb/internal/rpc"
	"dsb/internal/sqlstore"
	"dsb/internal/svcutil"
)

// MovieDB wire types.

// AddMovieReq inserts a movie with its cast.
type AddMovieReq struct {
	Movie Movie
	Cast  []CastMember
}

// GetMovieReq fetches a movie by ID.
type GetMovieReq struct{ ID string }

// GetMovieResp returns the movie.
type GetMovieResp struct{ Movie Movie }

// FindByTitleReq resolves a title to its movie.
type FindByTitleReq struct{ Title string }

// ByGenreReq lists movies in a genre.
type ByGenreReq struct {
	Genre string
	Limit int64
}

// MoviesResp returns movie records.
type MoviesResp struct{ Movies []Movie }

// CastReq fetches a movie's cast.
type CastReq struct{ MovieID string }

// CastResp returns cast members.
type CastResp struct{ Cast []CastMember }

// RateMovieReq folds a new rating into the aggregate.
type RateMovieReq struct {
	MovieID string
	Rating  int64
}

// newMovieDB creates MovieDB's database with its schemas.
func newMovieDB() (*sqlstore.DB, error) {
	db := sqlstore.NewDB()
	if err := db.CreateTable(sqlstore.Schema{
		Name:       "movies",
		PrimaryKey: "id",
		Columns:    []string{"id", "title", "year", "genre", "plot_id", "rating_sum", "rating_count"},
		Indexed:    []string{"title", "genre"},
	}); err != nil {
		return nil, err
	}
	if err := db.CreateTable(sqlstore.Schema{
		Name:       "cast",
		PrimaryKey: "id",
		Columns:    []string{"id", "movie_id", "actor", "role"},
		Indexed:    []string{"movie_id"},
	}); err != nil {
		return nil, err
	}
	return db, nil
}

func rowToMovie(r sqlstore.Row) Movie {
	year, _ := strconv.ParseInt(r["year"], 10, 64)
	sum, _ := strconv.ParseInt(r["rating_sum"], 10, 64)
	count, _ := strconv.ParseInt(r["rating_count"], 10, 64)
	m := Movie{
		ID: r["id"], Title: r["title"], Year: year,
		Genre: r["genre"], PlotID: r["plot_id"], NumRating: count,
	}
	if count > 0 {
		m.AvgRating = float64(sum) / float64(count)
	}
	return m
}

// registerMovieDB exposes MovieDB's database as an RPC microservice.
func registerMovieDB(srv *rpc.Server, db *sqlstore.DB) {
	svcutil.Handle(srv, "Add", func(ctx *rpc.Ctx, req *AddMovieReq) (*struct{}, error) {
		m := req.Movie
		if m.ID == "" || m.Title == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "movieDB: movie needs ID and title")
		}
		row := sqlstore.Row{
			"id": m.ID, "title": m.Title, "year": strconv.FormatInt(m.Year, 10),
			"genre": m.Genre, "plot_id": m.PlotID,
			"rating_sum": "0", "rating_count": "0",
		}
		if err := db.Insert("movies", row); err != nil {
			return nil, err
		}
		for i, c := range req.Cast {
			id := m.ID + "-cast-" + strconv.Itoa(i)
			crow := sqlstore.Row{"id": id, "movie_id": m.ID, "actor": c.Actor, "role": c.Role}
			if err := db.Insert("cast", crow); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})

	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *GetMovieReq) (*GetMovieResp, error) {
		row, err := db.Get("movies", req.ID)
		if err != nil {
			return nil, err
		}
		return &GetMovieResp{Movie: rowToMovie(row)}, nil
	})

	svcutil.Handle(srv, "FindByTitle", func(ctx *rpc.Ctx, req *FindByTitleReq) (*GetMovieResp, error) {
		rows, err := db.Select("movies", "title", req.Title, 1)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, rpc.NotFoundf("movieDB: no movie titled %q", req.Title)
		}
		return &GetMovieResp{Movie: rowToMovie(rows[0])}, nil
	})

	svcutil.Handle(srv, "ByGenre", func(ctx *rpc.Ctx, req *ByGenreReq) (*MoviesResp, error) {
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 20
		}
		rows, err := db.Select("movies", "genre", req.Genre, limit)
		if err != nil {
			return nil, err
		}
		out := make([]Movie, 0, len(rows))
		for _, r := range rows {
			out = append(out, rowToMovie(r))
		}
		return &MoviesResp{Movies: out}, nil
	})

	svcutil.Handle(srv, "Cast", func(ctx *rpc.Ctx, req *CastReq) (*CastResp, error) {
		rows, err := db.Select("cast", "movie_id", req.MovieID, 0)
		if err != nil {
			return nil, err
		}
		out := make([]CastMember, 0, len(rows))
		for _, r := range rows {
			out = append(out, CastMember{MovieID: r["movie_id"], Actor: r["actor"], Role: r["role"]})
		}
		return &CastResp{Cast: out}, nil
	})

	svcutil.Handle(srv, "Rate", func(ctx *rpc.Ctx, req *RateMovieReq) (*struct{}, error) {
		if req.Rating < 0 || req.Rating > 10 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "movieDB: rating %d out of range", req.Rating)
		}
		err := db.Update("movies", req.MovieID, func(r sqlstore.Row) sqlstore.Row {
			sum, _ := strconv.ParseInt(r["rating_sum"], 10, 64)
			count, _ := strconv.ParseInt(r["rating_count"], 10, 64)
			r["rating_sum"] = strconv.FormatInt(sum+req.Rating, 10)
			r["rating_count"] = strconv.FormatInt(count+1, 10)
			return r
		})
		return nil, err
	})
}

// PlotReq fetches a movie plot.
type PlotReq struct{ PlotID string }

// PlotResp returns the plot text.
type PlotResp struct{ Text string }

// PutPlotReq stores a plot.
type PutPlotReq struct {
	PlotID string
	Text   string
}

// registerPlot installs the plot service over its document store.
func registerPlot(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Put", func(ctx *rpc.Ctx, req *PutPlotReq) (*struct{}, error) {
		if req.PlotID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "plot: ID required")
		}
		return nil, db.Put(ctx, "plots", docstoreDoc(req.PlotID, []byte(req.Text)))
	})
	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *PlotReq) (*PlotResp, error) {
		doc, found, err := db.Get(ctx, "plots", req.PlotID)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("plot: no plot %q", req.PlotID)
		}
		return &PlotResp{Text: string(doc.Body)}, nil
	})
}
