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

// streamDeliveries is the single-broker session: one stream, no failover —
// Next surfaces the stream's end and the consumer reopens.
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
// support streaming (rpc clients, balanced pools, and shard replicas all
// do); callers get a coded error otherwise.
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

// partDeliveries is the partitioned session: one goroutine per shard keeps
// a push stream open against that shard's primary, re-resolving and
// reopening with backoff when the stream dies — which is exactly what a
// primary crash looks like, so failover to the promoted mirror is just the
// next reopen. Deliveries from all shards merge into one channel.
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
	shards := p.router.Shards()
	if len(shards) == 0 {
		return nil, rpc.Errorf(rpc.CodeUnavailable, "mq: no live brokers for topic %q", topic)
	}
	dctx, cancel := context.WithCancel(ctx)
	d := &partDeliveries{out: make(chan ConsumeResp), ctx: dctx, cancel: cancel}
	for _, label := range shards {
		d.wg.Add(1)
		go p.pushShard(d, label, topic, group, lease)
	}
	return d, nil
}

// pushShard keeps one shard's push stream alive for the session: resolve
// the primary (lowest live addr — the same rule publishers use), stream
// deliveries into the merged channel, and on any stream death back off and
// re-resolve.
func (p *Partitioned) pushShard(d *partDeliveries, label, topic, group string, lease time.Duration) {
	defer d.wg.Done()
	backoff := pushReopenBase
	for d.ctx.Err() == nil {
		reps := byAddr(p.router.GroupReplicas(label))
		if len(reps) == 0 {
			backoff = pushSleep(d.ctx, backoff)
			continue
		}
		st, err := reps[0].Stream(d.ctx, "Push", PushReq{Topic: topic, Group: group, LeaseNs: int64(lease)})
		if err != nil {
			backoff = pushSleep(d.ctx, backoff)
			continue
		}
		for {
			var m ConsumeResp
			if err := st.Recv(&m); err != nil {
				// Stream over: primary crash, broker shutdown, or session end.
				// Back off and re-resolve; the ring may have a new primary.
				backoff = pushSleep(d.ctx, backoff)
				break
			}
			backoff = pushReopenBase // a delivery proves the stream healthy
			select {
			case d.out <- m:
			case <-d.ctx.Done():
				st.Cancel() // the primary requeues m with the rest of the stream's leases
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
