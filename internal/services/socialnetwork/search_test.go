package socialnetwork

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dsb/internal/shard"
)

// refShard is the reference index the posting-list shard is checked against:
// the straightforward term -> post ID -> tf map of maps, scored the same way,
// with its own tokenizer. Like the shard, it ignores a retried Index.
type refShard struct {
	postings map[string]map[string]int
	docLen   map[string]int
}

func refTokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			if tok := b.String(); !stopwords[tok] && len(tok) > 1 {
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

func (s *refShard) index(postID, text string) {
	if _, ok := s.docLen[postID]; ok {
		return
	}
	terms := refTokenize(text)
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

func (s *refShard) query(terms []string, limit int) []SearchHit {
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
			scores[id] += (float64(tf) / float64(s.docLen[id])) * idf
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
		return hits[i].PostID > hits[j].PostID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// TestSearchShardMatchesReference indexes a seeded corpus — repeated terms,
// stopwords, one-character tokens, mixed case, non-ASCII letters, empty
// texts and retried posts — into both indexes, and every query must return
// the same hits with bit-identical scores in the same order.
func TestSearchShardMatchesReference(t *testing.T) {
	vocab := []string{
		"coffee", "Coffee", "TEA", "tea", "espresso", "latte", "mocha",
		"the", "a", "is", "of", "my", "I", "x", "7", "42", "go", "Go",
		"http", "dsb", "ly", "0a1b2c", "café", "Kelvin", "\u212aelvin", "straße",
		"user007", "hello", "see",
	}
	seps := []string{" ", "  ", ", ", "-", "!", "\t", "/", ": ", "\u00a0"}
	rng := rand.New(rand.NewPCG(1, 2))
	text := func() string {
		var b strings.Builder
		for n := rng.IntN(9); n > 0; n-- {
			b.WriteString(vocab[rng.IntN(len(vocab))])
			b.WriteString(seps[rng.IntN(len(seps))])
		}
		return b.String()
	}

	s := newSearchShard()
	ref := &refShard{postings: make(map[string]map[string]int), docLen: make(map[string]int)}
	var ids []string
	for i := 0; i < 600; i++ {
		id := fmt.Sprintf("%016x", rng.Uint64N(1<<20)) // collisions are retries
		if len(ids) > 0 && rng.IntN(8) == 0 {
			id = ids[rng.IntN(len(ids))] // a retry, sometimes with other text
		}
		ids = append(ids, id)
		body := text()
		s.index(id, body)
		ref.index(id, body)
	}

	for q := 0; q < 400; q++ {
		query := text()
		limit := rng.IntN(30) // 0: every hit
		got, want := s.query(tokenize(query), limit), ref.query(refTokenize(query), limit)
		if len(got) != len(want) {
			t.Fatalf("query %q limit %d: %d hits, reference %d", query, limit, len(got), len(want))
		}
		for i := range want {
			if got[i].PostID != want[i].PostID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("query %q limit %d: hit %d is %+v, reference %+v", query, limit, i, got[i], want[i])
			}
		}
	}
}

// TestSearchIndexRetryIsNoop: a retried Index of a post must leave its
// score where one Index put it, not count its text twice.
func TestSearchIndexRetryIsNoop(t *testing.T) {
	once, twice := newSearchShard(), newSearchShard()
	for _, s := range []*searchShard{once, twice} {
		s.index("p1", "coffee tea")
		s.index("p2", "coffee only here")
	}
	twice.index("p1", "coffee tea")
	a, b := once.query([]string{"coffee"}, 10), twice.query([]string{"coffee"}, 10)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("after a retried Index: %+v, after one: %+v", b, a)
	}
}

// TestSearchIndexFootprint pins the live heap an indexed post costs, over
// three shards routed as the search front routes them, on the social
// benchmark's post text (its URL as the text tier shortens it).
func TestSearchIndexFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap accounting; pinned by the non-race run in make alloc-guard")
	}
	const posts = 1200
	rng := rand.New(rand.NewPCG(1, 1))
	ids := make([]string, posts)
	texts := make([]string, posts)
	for i := range ids {
		ids[i] = fmt.Sprintf("%016x", uint64(0x192a1b2c3d4e000)+uint64(i)<<12+rng.Uint64N(1<<12))
		texts[i] = fmt.Sprintf("post %06x by user%d hello @user%d see http://dsb.ly/%010x",
			rng.Uint32()&0xFFFFFF, rng.IntN(100), rng.IntN(100), rng.Uint64N(1<<40))
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	ring := shard.NewRing(shard.DefaultVnodes, shard.Labels(3))
	before := heap()
	shards := map[string]*searchShard{"0": newSearchShard(), "1": newSearchShard(), "2": newSearchShard()}
	for i, id := range ids {
		shards[ring.Owner(id)].index(id, texts[i])
	}
	perPost := float64(heap()-before) / posts
	runtime.KeepAlive(shards)
	runtime.KeepAlive(texts)
	t.Logf("%.0f B of live heap per indexed post", perPost)
	if perPost > 450 {
		t.Fatalf("an indexed post costs %.0f B of live heap, want ≤ 450", perPost)
	}
}
