package media

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"dsb/internal/codec"
	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// Async review enrichment: composeReview's critical write is the review
// itself (reviewStorage keeps read-your-writes on the movie's review list),
// but the Record path also carries two non-critical follow-ups — folding
// the rating into MovieDB's aggregate and indexing the review text for
// search. With Config.AsyncReviews those leave the write path: movieReview
// publishes a ReviewEvent to the broker tier at Record and returns at
// broker ack; the "enrich" consumer group applies both behind the write.
// DrainReviews bounds the convergence window for deterministic tests.

// reviewTopic and reviewGroup name the broker topic review events flow
// through and the consumer group that enriches them.
const (
	reviewTopic = "reviews"
	reviewGroup = "enrich"
)

// reviewMaxAttempts dead-letters a review event after this many failed
// enrichments so one poisoned event cannot stall the aggregate pipeline.
const reviewMaxAttempts = 8

// reviewLease bounds one enrichment attempt before the broker assumes the
// worker died and redelivers.
const reviewLease = 30 * time.Second

// ConfigureReviewBroker declares the review topic and subscribes the enrich
// group — it must run at broker boot, before composeReview starts, so no
// publish misses the group.
func ConfigureReviewBroker(b *mq.Broker) {
	t := b.Topic(reviewTopic)
	t.Configure(mq.QueueConfig{MaxAttempts: reviewMaxAttempts})
	t.Subscribe(reviewGroup)
}

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
// idempotent per review ID — re-indexing a redelivered event is a no-op —
// which is what lets the enrich group run at-least-once.
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
			return nil, nil // redelivered event: already indexed
		}
		byID[r.ID] = r.MovieID
		for _, term := range strings.Fields(strings.ToLower(r.Text)) {
			ids, ok := terms[term]
			if !ok {
				ids = make(map[string]struct{})
				terms[term] = ids
			}
			ids[r.ID] = struct{}{}
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

// reviewWorker is one replica of the enrich tier: a member of the "enrich"
// consumer group draining the review topic into the rating aggregate and
// the search index. The composition root hands its enrich to Stack.Serve
// on the replica's server.
type reviewWorker struct {
	movieDB svcutil.Caller
	search  svcutil.Caller
	seen    mq.Dedup
}

// enrich applies one review's non-critical follow-ups. Dedup on the message
// key keeps the non-idempotent rating fold from double-counting a
// redelivery this replica already applied; the search index dedups again on
// review ID, so it is safe past the dedup window too.
func (rw *reviewWorker) enrich(ctx context.Context, msg mq.ConsumeResp) error {
	if rw.seen.Has(msg.Key) {
		return nil // already enriched; settle the redelivery
	}
	var r Review
	if err := codec.Unmarshal(msg.Body, &r); err != nil {
		return err
	}
	ectx, cancel := context.WithTimeout(ctx, reviewLease/2)
	defer cancel()
	if err := rw.movieDB.Call(ectx, "Rate", RateMovieReq{MovieID: r.MovieID, Rating: r.Rating}, nil); err != nil {
		return err
	}
	if err := rw.search.Call(ectx, "Index", IndexReviewReq{Review: r}, nil); err != nil {
		return err
	}
	rw.seen.Mark(msg.Key)
	return nil
}
