package socialnetwork

import (
	"context"
	"time"

	"dsb/internal/codec"
	"dsb/internal/mq"
	"dsb/internal/svcutil"
)

// Async timeline fan-out: with Config.AsyncFanout, composePost's Append no
// longer pays for the follower fan-out inline. The author's own timeline is
// prepended synchronously (read-your-writes: authors always see their own
// post immediately), a FanoutEvent is published to the broker's timeline
// topic, and Append returns as soon as the broker acks. The "fanout"
// consumer-group tier hydrates follower timelines behind the write, and the
// broker redelivers any event whose consumer dies mid-push. Followers
// converge within the group's drain time — the eventual-consistency window
// DrainFanout bounds for deterministic tests.

// timelineTopic and fanoutGroup name the broker topic fan-out events flow
// through and the consumer group that delivers them.
const (
	timelineTopic = "timeline"
	fanoutGroup   = "fanout"
)

// fanoutMaxAttempts dead-letters a fan-out event after this many failed
// deliveries so one poisoned event cannot head-of-line-block every timeline
// behind it.
const fanoutMaxAttempts = 8

// fanoutLease bounds one delivery attempt before the broker assumes the
// consumer died and redelivers.
const fanoutLease = 30 * time.Second

// FanoutEvent is the broker message behind one async fan-out: deliver
// Author's post to every follower timeline.
type FanoutEvent struct {
	Author string
	PostID string
}

// ConfigureTimelineBroker declares the timeline topic and subscribes the
// fanout group — it must run at broker boot, before composePost starts, so
// no publish misses the group.
func ConfigureTimelineBroker(b *mq.Broker) {
	t := b.Topic(timelineTopic)
	t.Configure(mq.QueueConfig{MaxAttempts: fanoutMaxAttempts})
	t.Subscribe(fanoutGroup)
}

// fanoutPush prepends a post to each listed user's timeline and invalidates
// their cache entries, walking the list with a bounded worker pool. Shared
// by the synchronous Append path and the async consumer; unique turns each
// prepend into the idempotent variant — the store-level backstop the async
// path needs, because at-least-once redelivery across a broker crash may
// replay a push on a *different* consumer replica, past any per-replica
// dedup.
func fanoutPush(ctx context.Context, db svcutil.DB, mc svcutil.KV, users []string, postID string, workers int, unique bool) error {
	return svcutil.Parallel(workers, len(users), func(i int) error {
		key := "tl:" + users[i]
		var err error
		if unique {
			_, err = db.ListPrependUnique(ctx, "timelines", key, postID, timelineCap)
		} else {
			_, err = db.ListPrepend(ctx, "timelines", key, postID, timelineCap)
		}
		if err != nil {
			return err
		}
		mc.Delete(ctx, key) //nolint:errcheck // invalidation is best-effort
		return nil
	})
}

// fanoutConsumer is one replica of the fanout tier: a member of the
// "fanout" consumer group draining the timeline topic. The composition root
// hands its deliver to Stack.Serve on the replica's server — the server
// exists to give the replica service identity (load reports and the control
// plane's lag probe attach to it) and its lifetime.
type fanoutConsumer struct {
	graph   svcutil.Caller
	db      svcutil.DB
	mc      svcutil.KV
	workers int
	seen    mq.Dedup
}

func newFanoutConsumer(graph svcutil.Caller, db svcutil.DB, mc svcutil.KV, workers int) *fanoutConsumer {
	if workers <= 0 {
		workers = defaultFanoutWorkers
	}
	return &fanoutConsumer{graph: graph, db: db, mc: mc, workers: workers}
}

// deliver hydrates follower timelines for one event. The author's own
// timeline was already written synchronously by Append, so only followers
// are pushed here. Idempotent consumption is layered: a redelivered key
// this replica already processed is settled without re-pushing (dedup),
// and whatever slips past — a replay landing on a different replica —
// is absorbed by the unique timeline prepend.
func (fc *fanoutConsumer) deliver(ctx context.Context, msg mq.ConsumeResp) error {
	if fc.seen.Has(msg.Key) {
		return nil // already delivered; settle the redelivery
	}
	var ev FanoutEvent
	if err := codec.Unmarshal(msg.Body, &ev); err != nil {
		return err
	}
	dctx, cancel := context.WithTimeout(ctx, fanoutLease/2)
	defer cancel()
	var followers NeighborsResp
	if err := fc.graph.Call(dctx, "Followers", NeighborsReq{User: ev.Author}, &followers); err != nil {
		return err
	}
	if err := fanoutPush(dctx, fc.db, fc.mc, followers.Users, ev.PostID, fc.workers, msg.Key != ""); err != nil {
		return err
	}
	fc.seen.Mark(msg.Key)
	return nil
}
