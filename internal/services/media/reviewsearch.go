package media

import (
	"sort"
	"strings"
	"sync"

	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// SearchReviewsReq queries the review text index: reviews whose text
// contains every term of Query (case-insensitive), optionally restricted to
// one movie.
type SearchReviewsReq struct {
	Query   string
	MovieID string
	Limit   int64
}

// SearchReviewsResp returns matching review IDs, sorted.
type SearchReviewsResp struct{ IDs []string }

// IndexReviewReq adds one review to the text index.
type IndexReviewReq struct{ Review Review }

// registerReviewSearch installs the reviewSearch service: an inverted index
// over review text (the Elasticsearch role in media pipelines). Indexing is
// idempotent per review ID, so a retried Record re-indexes nothing.
func registerReviewSearch(srv *rpc.Server) {
	var (
		mu    sync.Mutex
		terms = make(map[string]map[string]struct{}) // term -> review IDs
		byID  = make(map[string]string)              // review ID -> movie ID
	)
	svcutil.Handle(srv, "Index", func(ctx *rpc.Ctx, req *IndexReviewReq) (*struct{}, error) {
		r := req.Review
		if r.ID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "reviewSearch: review ID required")
		}
		mu.Lock()
		defer mu.Unlock()
		if _, done := byID[r.ID]; done {
			return nil, nil // retried Record: already indexed
		}
		// The index keeps copies: decoded strings share their request's memory.
		id := strings.Clone(r.ID)
		byID[id] = strings.Clone(r.MovieID)
		for _, term := range strings.Fields(strings.ToLower(r.Text)) {
			ids, ok := terms[term]
			if !ok {
				ids = make(map[string]struct{})
				terms[strings.Clone(term)] = ids
			}
			ids[id] = struct{}{}
		}
		return nil, nil
	})
	svcutil.Handle(srv, "Search", func(ctx *rpc.Ctx, req *SearchReviewsReq) (*SearchReviewsResp, error) {
		want := strings.Fields(strings.ToLower(req.Query))
		if len(want) == 0 {
			return &SearchReviewsResp{}, nil
		}
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for id := range terms[want[0]] {
			match := true
			for _, term := range want[1:] {
				if _, ok := terms[term][id]; !ok {
					match = false
					break
				}
			}
			if match && (req.MovieID == "" || byID[id] == req.MovieID) {
				out = append(out, id)
			}
		}
		sort.Strings(out)
		if limit := int(req.Limit); limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return &SearchReviewsResp{IDs: out}, nil
	})
}
