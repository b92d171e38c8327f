package mq

// Push-based delivery: instead of long-polling Consume in a loop — paying
// an RPC per poll and consumeGrace per hung shard even when the topic is
// idle — a consumer opens one standing Push stream per broker primary and
// the broker sends messages as they become deliverable. Leases, settles,
// and redelivery are unchanged: the broker leases before it sends, the
// consumer still Acks/Nacks by key, and what a dying stream had delivered
// that nobody settled is requeued for immediate redelivery. The stream's
// flow-control window is the delivery backpressure: a slow consumer parks
// the broker's sender with at most a window of messages leased ahead.

import (
	"context"
	"sync"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// pushWaitSlice bounds each broker-side queue wait of a push stream: a local
// cond wait, so an idle topic costs no RPCs — the whole point versus polling.
// Nothing wakes a waiter when a lease runs out, so the slice is how late an
// expired lease can be noticed on an idle queue; stream teardown does not
// wait for it (it closes the Session, which wakes the wait).
const pushWaitSlice = 250 * time.Millisecond

// pushReopenBase and pushReopenMax bound the backoff a push consumer's
// per-shard loop applies between failed stream opens (dead primary, lease
// not yet evicted).
const (
	pushReopenBase = 20 * time.Millisecond
	pushReopenMax  = 250 * time.Millisecond
)

// Deliveries is an open push-delivery session. Next blocks for the next
// leased message; the consumer settles it with the bus's Ack/Nack exactly
// as it would a polled one. Close ends the session and releases its
// streams; the broker takes back every message the session was sent and
// nobody settled (see Session), so they redeliver at once.
type Deliveries interface {
	// Next returns the next delivered message. An error means this session
	// has stopped delivering — the single-broker session ends when its
	// stream does, after draining what the stream had already buffered (the
	// consumer reopens, its failover moment), while the partitioned session
	// fails over internally and errors only when its context ends.
	Next() (ConsumeResp, error)
	// Close tears the session down; a blocked Next wakes with an error.
	Close()
}

// streamDeliveries is Client's session: one stream, no failover — Next
// surfaces the stream's end and the consumer reopens. It goes with Client
// (see there).
type streamDeliveries struct{ st *transport.Stream }

func (d *streamDeliveries) Next() (ConsumeResp, error) {
	var m ConsumeResp
	if err := d.st.Recv(&m); err != nil {
		return ConsumeResp{}, err
	}
	return m, nil
}

func (d *streamDeliveries) Close() { d.st.Cancel() }

// Push opens a push stream on the broker. The underlying transport must
// support streaming (rpc clients and shard replicas do); callers get a
// coded error otherwise.
func (c Client) Push(ctx context.Context, topic, group string, lease time.Duration) (Deliveries, error) {
	sc, ok := c.C.(transport.Streamer)
	if !ok {
		return nil, rpc.Errorf(rpc.CodeBadRequest, "mq: transport does not support push delivery")
	}
	st, err := sc.Stream(ctx, "Push", PushReq{Topic: topic, Group: group, LeaseNs: int64(lease)})
	if err != nil {
		return nil, err
	}
	return &streamDeliveries{st: st}, nil
}

// partDeliveries is the partitioned Deliveries session: the per-shard
// loops of pushShards, merged into one channel for Next. Serve does not
// use it; its workers handle each delivery on the shard's own loop.
type partDeliveries struct {
	out    chan ConsumeResp
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func (d *partDeliveries) Next() (ConsumeResp, error) {
	select {
	case m := <-d.out:
		return m, nil
	case <-d.ctx.Done():
		return ConsumeResp{}, rpc.Errorf(rpc.CodeUnavailable, "mq: push session closed: %v", d.ctx.Err())
	}
}

func (d *partDeliveries) Close() {
	d.cancel()
	d.wg.Wait()
}

// Push opens one push stream per shard primary and merges their deliveries.
// The session survives broker crashes: a shard whose primary dies reopens
// against the survivor once the health lease re-forms the ring.
func (p *Partitioned) Push(ctx context.Context, topic, group string, lease time.Duration) (Deliveries, error) {
	dctx, cancel := context.WithCancel(ctx)
	d := &partDeliveries{out: make(chan ConsumeResp), ctx: dctx, cancel: cancel}
	err := p.pushShards(dctx, &d.wg, topic, group, lease, func(m ConsumeResp) {
		select {
		case d.out <- m:
		case <-dctx.Done(): // the stream's cancel hands m back with its other leases
		}
	})
	if err != nil {
		cancel()
		return nil, err
	}
	return d, nil
}

// pushShards starts one pushShard loop per shard of the broker tier, each
// counted on wg, and fails when the ring has no shard yet.
func (p *Partitioned) pushShards(ctx context.Context, wg *sync.WaitGroup, topic, group string, lease time.Duration, deliver func(ConsumeResp)) error {
	shards := p.router.Shards()
	if len(shards) == 0 {
		return rpc.Errorf(rpc.CodeUnavailable, "mq: no live brokers for topic %q", topic)
	}
	for _, label := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.pushShard(ctx, label, topic, group, lease, deliver)
		}()
	}
	return nil
}

// pushShard keeps one shard's push stream alive until ctx ends: resolve the
// primary (lowest live addr — the same rule publishers use), hand each
// delivery to deliver on this goroutine, and on any stream death back off
// and re-resolve — which is exactly what a primary crash looks like, so
// failover to the promoted mirror is just the next reopen.
func (p *Partitioned) pushShard(ctx context.Context, label, topic, group string, lease time.Duration, deliver func(ConsumeResp)) {
	backoff := pushReopenBase
	for ctx.Err() == nil {
		reps := p.router.Group(label)
		if len(reps) == 0 {
			backoff = pushSleep(ctx, backoff)
			continue
		}
		st, err := reps[0].Stream(ctx, "Push", PushReq{Topic: topic, Group: group, LeaseNs: int64(lease)})
		if err != nil {
			backoff = pushSleep(ctx, backoff)
			continue
		}
		for {
			var m ConsumeResp
			if err := st.Recv(&m); err != nil {
				// Stream over: primary crash, broker shutdown, or session end.
				// Back off and re-resolve; the ring may have a new primary.
				backoff = pushSleep(ctx, backoff)
				break
			}
			backoff = pushReopenBase // a delivery proves the stream healthy
			deliver(m)
			if ctx.Err() != nil {
				st.Cancel() // the primary requeues what the stream leased and nobody settled
				return
			}
		}
	}
}

// pause waits out d or the context's end, whichever comes first.
func pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// pushSleep waits out one backoff step (or the session's end) and returns
// the next, doubled up to pushReopenMax.
func pushSleep(ctx context.Context, backoff time.Duration) time.Duration {
	pause(ctx, backoff)
	backoff *= 2
	if backoff > pushReopenMax {
		backoff = pushReopenMax
	}
	return backoff
}
