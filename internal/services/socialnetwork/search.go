package socialnetwork

import (
	"math"
	"sort"
	"strings"
	"sync"

	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// IndexPostReq adds a post to the search index.
type IndexPostReq struct {
	PostID string
	Text   string
}

// SearchReq queries the index.
type SearchReq struct {
	Query string
	Limit int64
}

// SearchHit is one scored result.
type SearchHit struct {
	PostID string
	Score  float64
}

// SearchResp returns hits, best first.
type SearchResp struct{ Hits []SearchHit }

var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "the": true, "is": true, "are": true,
	"to": true, "of": true, "in": true, "on": true, "for": true, "with": true,
	"at": true, "this": true, "that": true, "it": true, "my": true, "i": true,
}

// tokenize lowercases and splits on non-alphanumerics, dropping stopwords —
// the Xapian-style normalization pipeline.
func tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tok := b.String()
			if !stopwords[tok] && len(tok) > 1 {
				out = append(out, tok)
			}
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// searchShard is one index partition: an in-memory inverted index with
// per-document term frequencies for TF-IDF scoring.
type searchShard struct {
	mu       sync.RWMutex
	postings map[string]map[string]int // term -> postID -> tf
	docLen   map[string]int
}

func newSearchShard() *searchShard {
	return &searchShard{postings: make(map[string]map[string]int), docLen: make(map[string]int)}
}

func (s *searchShard) index(postID, text string) {
	terms := tokenize(text)
	postID = strings.Clone(postID) // a decoded ID shares its request's memory
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docLen[postID] = len(terms)
	for _, t := range terms {
		m, ok := s.postings[t]
		if !ok {
			m = make(map[string]int)
			s.postings[t] = m
		}
		m[postID]++
	}
}

func (s *searchShard) query(terms []string, limit int) []SearchHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.docLen)
	if n == 0 {
		return nil
	}
	scores := make(map[string]float64)
	for _, t := range terms {
		posting := s.postings[t]
		if len(posting) == 0 {
			continue
		}
		idf := math.Log(1 + float64(n)/float64(len(posting)))
		for id, tf := range posting {
			dl := s.docLen[id]
			if dl == 0 {
				dl = 1
			}
			scores[id] += (float64(tf) / float64(dl)) * idf
		}
	}
	hits := make([]SearchHit, 0, len(scores))
	for id, sc := range scores {
		hits = append(hits, SearchHit{PostID: id, Score: sc})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].PostID > hits[j].PostID // newer snowflake IDs first
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// registerSearchShard installs one index partition service (index0..n in
// Figure 4).
func registerSearchShard(srv *rpc.Server) {
	shard := newSearchShard()
	svcutil.Handle(srv, "Index", func(ctx *rpc.Ctx, req *IndexPostReq) (*struct{}, error) {
		if req.PostID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "search: post ID required")
		}
		shard.index(req.PostID, req.Text)
		return nil, nil
	})
	svcutil.Handle(srv, "Query", func(ctx *rpc.Ctx, req *SearchReq) (*SearchResp, error) {
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 10
		}
		return &SearchResp{Hits: shard.query(tokenize(req.Query), limit)}, nil
	})
}

// registerSearch installs the search front service: documents are routed
// to a shard by post-ID hash on writes, and queries fan out to every shard
// in parallel with a merge by score.
func registerSearch(srv *rpc.Server, shards []svcutil.Caller) {
	pick := func(postID string) svcutil.Caller {
		h := uint32(2166136261)
		for i := 0; i < len(postID); i++ {
			h = (h ^ uint32(postID[i])) * 16777619
		}
		return shards[int(h)%len(shards)]
	}
	svcutil.Handle(srv, "Index", func(ctx *rpc.Ctx, req *IndexPostReq) (*struct{}, error) {
		if len(shards) == 0 {
			return nil, rpc.Errorf(rpc.CodeUnavailable, "search: no shards")
		}
		return nil, pick(req.PostID).Call(ctx, "Index", *req, nil)
	})
	svcutil.Handle(srv, "Query", func(ctx *rpc.Ctx, req *SearchReq) (*SearchResp, error) {
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 10
		}
		// Errors by shard, so a failure reports the lowest failing shard.
		resps := make([]SearchResp, len(shards))
		errs := make([]error, len(shards))
		svcutil.Parallel(len(shards), len(shards), func(i int) error {
			errs[i] = shards[i].Call(ctx, "Query", SearchReq{Query: req.Query, Limit: int64(limit)}, &resps[i])
			return nil
		})
		var merged []SearchHit
		for i, r := range resps {
			if errs[i] != nil {
				return nil, errs[i]
			}
			merged = append(merged, r.Hits...)
		}
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Score != merged[j].Score {
				return merged[i].Score > merged[j].Score
			}
			return merged[i].PostID > merged[j].PostID
		})
		if len(merged) > limit {
			merged = merged[:limit]
		}
		return &SearchResp{Hits: merged}, nil
	})
}
