package socialnetwork

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"dsb/internal/rpc"
	"dsb/internal/shard"
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

// eachTerm runs fn on every index term of text, the Xapian-style
// normalization pipeline: lowercase, split on non-alphanumerics, drop
// stopwords and one-character tokens. The term is scratch memory, valid only
// during the call.
func eachTerm(text string, fn func(term []byte)) {
	var buf [32]byte
	tok := buf[:0]
	flush := func() {
		if len(tok) > 1 && !stopwords[string(tok)] {
			fn(tok)
		}
		tok = tok[:0]
	}
	for _, r := range text {
		if r >= utf8.RuneSelf {
			r = unicode.ToLower(r) // as strings.ToLower: U+212A KELVIN SIGN is a 'k'
		} else if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			tok = append(tok, byte(r))
		} else {
			flush()
		}
	}
	flush()
}

// tokenize returns the index terms of text (see eachTerm).
func tokenize(text string) []string {
	var out []string
	eachTerm(text, func(term []byte) { out = append(out, string(term)) })
	return out
}

// posting is one document's entry in a term's posting list.
type posting struct{ doc, tf int32 }

// searchShard is one index partition: an in-memory inverted index with
// per-document term frequencies for TF-IDF scoring. Documents are numbered
// densely in indexing order, so a posting list is a slice in document order
// and a new document only ever appends to the lists of its terms; post IDs
// appear only at the edges, in ids and docOf. A term maps to a term number,
// not to its list, so appending to a known term's list writes no map entry:
// a map write keyed by the tokenizer's scratch bytes would allocate the key
// on every term of every post.
type searchShard struct {
	mu       sync.RWMutex
	ids      []string         // document number -> post ID
	docLen   []int32          // document number -> term count
	docOf    map[string]int32 // post ID -> document number
	terms    map[string]int32 // term -> term number
	postings [][]posting      // term number -> postings in document order
}

func newSearchShard() *searchShard {
	return &searchShard{docOf: make(map[string]int32), terms: make(map[string]int32)}
}

// index adds a post to the shard; a post ID it already holds is a retried
// Index, and a no-op.
func (s *searchShard) index(postID, text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docOf[postID]; ok {
		return
	}
	doc := int32(len(s.ids))
	postID = strings.Clone(postID) // a decoded ID shares its request's memory
	s.ids = append(s.ids, postID)
	s.docOf[postID] = doc
	var n int32
	eachTerm(text, func(term []byte) {
		n++
		t, ok := s.terms[string(term)]
		if !ok {
			t = int32(len(s.postings))
			s.terms[string(term)] = t
			s.postings = append(s.postings, nil)
		}
		ps := s.postings[t]
		if last := len(ps) - 1; last >= 0 && ps[last].doc == doc {
			ps[last].tf++
			return
		}
		s.postings[t] = append(ps, posting{doc: doc, tf: 1})
	})
	s.docLen = append(s.docLen, n)
}

func (s *searchShard) query(terms []string, limit int) []SearchHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.ids)
	if n == 0 {
		return nil
	}
	scores := make(map[int32]float64)
	for _, term := range terms {
		t, ok := s.terms[term]
		if !ok {
			continue
		}
		ps := s.postings[t]
		idf := math.Log(1 + float64(n)/float64(len(ps)))
		for _, p := range ps {
			scores[p.doc] += (float64(p.tf) / float64(s.docLen[p.doc])) * idf
		}
	}
	type scored struct {
		doc   int32
		score float64
	}
	ranked := make([]scored, 0, len(scores))
	for doc, sc := range scores {
		ranked = append(ranked, scored{doc, sc})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return s.ids[ranked[i].doc] > s.ids[ranked[j].doc] // newer snowflake IDs first
	})
	if limit > 0 && len(ranked) > limit {
		ranked = ranked[:limit]
	}
	hits := make([]SearchHit, len(ranked))
	for i, r := range ranked {
		hits[i] = SearchHit{PostID: s.ids[r.doc], Score: r.score}
	}
	return hits
}

// registerSearchShard installs one index partition: a shard group of the
// search-index tier (index0..n in Figure 4).
func registerSearchShard(srv *rpc.Server) {
	part := newSearchShard()
	svcutil.Handle(srv, "Index", func(ctx *rpc.Ctx, req *IndexPostReq) (*struct{}, error) {
		if req.PostID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "search: post ID required")
		}
		part.index(req.PostID, req.Text)
		return nil, nil
	})
	svcutil.Handle(srv, "Query", func(ctx *rpc.Ctx, req *SearchReq) (*SearchResp, error) {
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 10
		}
		return &SearchResp{Hits: part.query(tokenize(req.Query), limit)}, nil
	})
}

// registerSearch installs the search front service over the index tier's
// router: a document goes to the shard group its post ID hashes to, and a
// query fans out to every group in parallel with a merge by score.
func registerSearch(srv *rpc.Server, index *shard.Router) {
	svcutil.Handle(srv, "Index", func(ctx *rpc.Ctx, req *IndexPostReq) (*struct{}, error) {
		reps := index.Route(req.PostID)
		if len(reps) == 0 {
			return nil, rpc.Errorf(rpc.CodeUnavailable, "search: no shards")
		}
		return nil, reps[0].Call(ctx, "Index", *req, nil)
	})
	svcutil.Handle(srv, "Query", func(ctx *rpc.Ctx, req *SearchReq) (*SearchResp, error) {
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 10
		}
		// Errors by group, so a failure reports the lowest-labelled one.
		groups := index.Scatter()
		resps := make([]SearchResp, len(groups))
		errs := make([]error, len(groups))
		svcutil.Parallel(len(groups), len(groups), func(i int) error {
			errs[i] = groups[i][0].Call(ctx, "Query", SearchReq{Query: req.Query, Limit: int64(limit)}, &resps[i])
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
