package mq

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/shard"
)

// Bus is the broker surface async producers and consumers program against.
// Every app's broker client is a Partitioned one (svcutil.Stack.MQ), which
// runs the same code in every broker layout, 1 × 1 included; Client also
// satisfies it.
type Bus interface {
	// Publish sends one message to a topic and returns after the broker tier
	// has accepted it for every subscribed group.
	Publish(ctx context.Context, topic string, body []byte) (uint64, error)
	// PublishKey is Publish with a caller-supplied idempotency key: retries
	// of the same logical message must reuse the key, which makes them safe
	// against both broker-side duplication and (on the partitioned tier)
	// replays across a mirror failover.
	PublishKey(ctx context.Context, topic, key string, body []byte) (uint64, error)
	// Subscribe registers a consumer group on a topic with the given bounds.
	Subscribe(ctx context.Context, topic, group string, cfg QueueConfig) error
	// Consume long-polls one message for the group: the bounded one-shot
	// primitive drains, tests and the benchmark ladder use. Standing
	// consumers take delivery through Serve.
	Consume(ctx context.Context, topic, group string, lease, wait time.Duration) (ConsumeResp, error)
	// Push opens a push-delivery session for the group on the topic. lease
	// bounds per-message processing time exactly as in Consume.
	Push(ctx context.Context, topic, group string, lease time.Duration) (Deliveries, error)
	// Ack settles a consumed message as done.
	Ack(ctx context.Context, topic, group string, m ConsumeResp) error
	// Nack returns a consumed message for redelivery (or dead-lettering).
	Nack(ctx context.Context, topic, group string, m ConsumeResp) error
}

var (
	_ Bus = Client{}
	_ Bus = (*Partitioned)(nil)
)

// partNode hands every Partitioned client in the process a distinct key
// namespace, so concurrently-running publishers never collide.
var partNode atomic.Uint64

// Partitioned is the broker client for the partitioned, replicated tier.
// Topics are partitioned by *message key* across broker shards — every
// broker instance carries a slice of every topic's traffic, the way Kafka
// partitions spread one topic over many brokers — so a single hot topic
// scales past one broker's fan-out capacity. Each shard is a replica set:
//
//   - Publish routes the key to its owning shard, publishes to the primary
//     (the lowest-addressed live replica — a rule every client computes
//     identically from registry state, needing no election), then mirrors
//     to the remaining replicas before returning. An acked publish is
//     therefore on every live replica of its shard: "acked ⇒ mirrored".
//   - Consume polls only shard primaries (mirror copies are insurance, not
//     a second delivery stream), rotating across shards and splitting the
//     wait budget between them.
//   - Ack/Nack settle by key on every replica of the owning shard, so the
//     mirror copies retire with the primary's — Ack one-way, Nack waiting
//     for an answer. Settles that race ahead of a still-propagating mirror
//     are absorbed by the broker's tombstones.
//
// When a health lease evicts a dead broker the router's ring re-forms:
// the surviving replica becomes primary, publishers fail over to it, and
// the mirror copies of everything the corpse held — queued and leased
// alike — are consumed from the survivor. Delivery stays at-least-once
// (a message consumed-but-unacked at the crash redelivers from the
// mirror); consumers stay idempotent by dedup on Message.Key.
type Partitioned struct {
	router *shard.Router
	node   string
	seq    atomic.Uint64
	rr     atomic.Uint64
}

// NewPartitioned wraps a shard router over the broker tier's instances.
func NewPartitioned(router *shard.Router) *Partitioned {
	return &Partitioned{router: router, node: fmt.Sprintf("n%d", partNode.Add(1))}
}

// nextKey mints a process-unique message key for unkeyed publishes.
func (p *Partitioned) nextKey() string {
	return fmt.Sprintf("%s-%d", p.node, p.seq.Add(1))
}

// Publish mints a fresh key and publishes. Producers that may retry a
// logical message should use PublishKey with a stable key instead.
func (p *Partitioned) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	return p.PublishKey(ctx, topic, p.nextKey(), body)
}

// PublishKey publishes to the key's owning shard: primary first, then a
// synchronous mirror to every sibling replica. Success means all live
// replicas hold a copy; any failure returns an error and the caller
// retries with the same key, which the brokers deduplicate. If the primary
// is unreachable (a corpse the lease hasn't evicted yet) the publish fails
// over down the replica list — the copy lands somewhere live — but still
// reports failure unless every live replica was reached.
func (p *Partitioned) PublishKey(ctx context.Context, topic, key string, body []byte) (uint64, error) {
	if key == "" {
		key = p.nextKey()
	}
	reps := p.router.Group(p.router.Owner(key))
	if len(reps) == 0 {
		return 0, rpc.Errorf(rpc.CodeUnavailable, "mq: no live brokers for topic %q", topic)
	}
	var id uint64
	var firstErr error
	landed := 0
	for i, rep := range reps {
		var err error
		if landed == 0 {
			var resp PublishResp
			err = rep.Call(ctx, "Publish", PublishReq{Topic: topic, Key: key, Body: body}, &resp)
			if err == nil {
				id = resp.ID
			}
		} else {
			var resp MirrorResp
			err = rep.Call(ctx, "Mirror", MirrorReq{Topic: topic, Key: key, Body: body}, &resp)
		}
		if err != nil {
			if i == 0 && rpc.ErrorCode(err) == rpc.CodeOverloaded {
				// The primary shed on MaxDepth: that is admission control, not
				// a failure to fail over around.
				return 0, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		landed++
	}
	if landed < len(reps) {
		return id, rpc.Errorf(rpc.CodeUnavailable,
			"mq: publish %q reached %d/%d replicas: %v", key, landed, len(reps), firstErr)
	}
	return id, nil
}

// Subscribe registers the group on every broker instance — mirrors
// included, since a mirror only accepts copies for groups it knows about.
func (p *Partitioned) Subscribe(ctx context.Context, topic, group string, cfg QueueConfig) error {
	req := SubscribeReq{Topic: topic, Group: group, MaxAttempts: cfg.MaxAttempts, MaxDepth: cfg.MaxDepth}
	for _, reps := range p.router.Scatter() {
		for _, rep := range reps {
			if err := rep.Call(ctx, "Subscribe", req, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// consumeGrace bounds each per-shard poll past its wait share, so a hung
// primary (a corpse the lease hasn't evicted yet) costs one bounded slice
// of the poll loop instead of the caller's whole deadline.
const consumeGrace = 100 * time.Millisecond

// Consume polls the shard primaries round-robin, splitting the wait budget
// across shards. Dead shards (no live replicas, or a primary that errors)
// are skipped; an empty sweep returns OK=false like a single broker would.
//
// The whole sweep is bounded by wait plus ONE consumeGrace, not one per
// shard: per-shard polls are clamped to the remaining overall budget, so a
// sweep across N hung primaries costs at most wait+grace instead of
// wait+N*grace — the overshoot that used to starve the caller's own
// deadline on wide tiers. The caller's ctx deadline, when earlier, caps the
// budget too.
func (p *Partitioned) Consume(ctx context.Context, topic, group string, lease, wait time.Duration) (ConsumeResp, error) {
	shards := p.router.Shards()
	if len(shards) == 0 {
		return ConsumeResp{}, rpc.Errorf(rpc.CodeUnavailable, "mq: no live brokers for topic %q", topic)
	}
	per := wait / time.Duration(len(shards))
	deadline := time.Now().Add(wait + consumeGrace)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	start := int(p.rr.Add(1))
	var lastErr error
	for i := range shards {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		label := shards[(start+i)%len(shards)]
		reps := p.router.Group(label)
		if len(reps) == 0 {
			continue
		}
		slice := per + consumeGrace
		if slice > remaining {
			slice = remaining
		}
		pollWait := per
		if pollWait > slice {
			pollWait = slice
		}
		cctx, cancel := context.WithTimeout(ctx, slice)
		var resp ConsumeResp
		err := reps[0].Call(cctx, "Consume", ConsumeReq{
			Topic: topic, Group: group, LeaseNs: int64(lease), WaitNs: int64(pollWait),
		}, &resp)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.OK {
			return resp, nil
		}
	}
	if lastErr != nil {
		return ConsumeResp{}, lastErr
	}
	return ConsumeResp{}, nil
}

// Ack settles a consumed message by key, one-way, on every replica of its
// owning shard, so the mirror copies retire with the primary's: it returns
// at send, and a lost ack only costs a redelivery, which at-least-once
// consumers already tolerate. It fails only when no replica could be sent
// to.
func (p *Partitioned) Ack(ctx context.Context, topic, group string, m ConsumeResp) error {
	return p.settle(ctx, "Ack", topic, group, m.Key)
}

// Nack returns a consumed message for redelivery on whichever replicas
// hold a live copy: synchronously, one replica after another, succeeding
// when at least one answers — a nacking consumer is already off its hot
// path, and a settle that reached only the survivor of a crashing pair did
// its job (the corpse's copy dies with it).
func (p *Partitioned) Nack(ctx context.Context, topic, group string, m ConsumeResp) error {
	return p.settle(ctx, "Nack", topic, group, m.Key)
}

// settle sends a by-key settle to every replica of the key's owning shard
// in address order, an Ack one-way, and succeeds when one was reached; a
// settle that reached no one surfaces so the consumer knows the redelivery
// is coming.
func (p *Partitioned) settle(ctx context.Context, method, topic, group, key string) error {
	if key == "" {
		return rpc.Errorf(rpc.CodeBadRequest, "mq: partitioned %s requires a keyed message", method)
	}
	reps := p.router.Group(p.router.Owner(key))
	if len(reps) == 0 {
		return rpc.Errorf(rpc.CodeUnavailable, "mq: no live brokers for topic %q", topic)
	}
	req := AckReq{Topic: topic, Group: group, Key: key}
	var firstErr error
	reached := false
	for _, rep := range reps {
		var err error
		if method == "Ack" {
			err = rep.CallOneWay(ctx, method, req)
		} else {
			err = rep.Call(ctx, method, req, nil)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reached = true
	}
	if reached {
		return nil
	}
	return firstErr
}
