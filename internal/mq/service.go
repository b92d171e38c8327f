package mq

import (
	"context"
	"time"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Wire messages for the broker's RPC interface. Consumers address work by
// (Topic, Group).

// PublishReq publishes one message to a topic (fan-out to all subscribed
// groups). Key, when set, makes the publish idempotent on this broker
// (retries and hedges are safe) and identifies the message across broker
// replicas.
type PublishReq struct {
	Topic string
	Key   string
	Body  []byte
}

// MirrorReq inserts a copy of an already-admitted keyed message — the
// replication stream between a shard's primary and its mirrors. Unlike
// Publish it never sheds on MaxDepth and requires a Key.
type MirrorReq struct {
	Topic string
	Key   string
	Body  []byte
}

// MirrorResp reports how many queues accepted a copy (0 = everywhere
// deduplicated or tombstoned, which still counts as mirrored).
type MirrorResp struct{ N int }

// PublishResp acknowledges the publish; the broker has durably enqueued the
// message for every subscribed group by the time this returns.
type PublishResp struct{ ID uint64 }

// SubscribeReq registers a consumer group on a topic and configures the
// group queue's bounds (zero values mean unbounded).
type SubscribeReq struct {
	Topic       string
	Group       string
	MaxAttempts int
	MaxDepth    int
}

// ConsumeReq long-polls one message. LeaseNs bounds processing time before
// redelivery (<=0 means the 30s default); WaitNs bounds the poll.
type ConsumeReq struct {
	Topic   string
	Group   string
	LeaseNs int64
	WaitNs  int64
}

// ConsumeResp returns the leased message; OK=false means the wait expired
// with nothing deliverable. Key is set for replicated messages and is what
// the settle must route by (the local ID is only meaningful on the broker
// that leased it).
type ConsumeResp struct {
	ID       uint64
	Key      string
	Body     []byte
	Attempts int
	OK       bool
}

// PushReq opens a push-delivery stream: the broker leases messages for the
// group as they become deliverable and streams each as a ConsumeResp item,
// one standing stream replacing the consumer's poll loop. LeaseNs bounds
// per-message processing exactly as in ConsumeReq; settles still travel as
// ordinary Ack/Nack calls.
type PushReq struct {
	Topic   string
	Group   string
	LeaseNs int64
}

// AckReq settles a lease: acknowledge (done) or negative-acknowledge
// (redeliver, or dead-letter once attempts are exhausted). With Key set the
// settle is by key — valid on any replica holding a copy, which is how
// settles survive the leasing broker's death; otherwise by local lease ID.
type AckReq struct {
	Topic string
	Group string
	ID    uint64
	Key   string
}

// AckResp reports whether the lease was still live.
type AckResp struct{ OK bool }

// queueFor resolves the topic's group queue a request addresses. Consume on
// a topic implies Subscribe, so a consumer that outlives a broker restart
// re-registers its group on first poll; publishes before that first poll
// still require the boot-time Subscribe to be fanned out.
func queueFor(b *Broker, topic, group string) (*Queue, error) {
	if topic == "" || group == "" {
		return nil, rpc.Errorf(rpc.CodeBadRequest, "mq: a topic and a group are required")
	}
	return b.Topic(topic).Subscribe(group), nil
}

// RegisterService exposes broker as an RPC microservice on srv with methods
// Publish, Mirror, Subscribe, Consume, Push, Ack, and Nack — the networked
// broker tier the async application paths publish through. Ack and Nack are safe
// to invoke one-way: a lost settle only costs a redelivery, which
// at-least-once consumers already tolerate.
func RegisterService(srv *rpc.Server, broker *Broker) {
	// Server shutdown must wake parked long-pollers: Close runs after the
	// server stops accepting but before it waits on in-flight handlers, so a
	// Consume parked in ReceiveWait returns promptly instead of burning its
	// full wait budget (or wedging Close forever).
	srv.OnClose(broker.Close)
	rpc.HandleTyped(srv, "Publish", func(ctx *rpc.Ctx, req *PublishReq) ([]byte, error) {
		if req.Topic == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "mq: publish requires a topic")
		}
		id, err := broker.Topic(req.Topic).PublishKey(req.Key, req.Body)
		if err != nil {
			return nil, err
		}
		return ctx.Reply(&PublishResp{ID: id})
	})
	rpc.HandleTyped(srv, "Mirror", func(ctx *rpc.Ctx, req *MirrorReq) ([]byte, error) {
		if req.Topic == "" || req.Key == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "mq: mirror requires a topic and a key")
		}
		return ctx.Reply(&MirrorResp{N: broker.Topic(req.Topic).Insert(req.Key, req.Body)})
	})
	rpc.HandleTyped(srv, "Subscribe", func(ctx *rpc.Ctx, req *SubscribeReq) ([]byte, error) {
		if req.Topic == "" || req.Group == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "mq: subscribe requires topic and group")
		}
		t := broker.Topic(req.Topic)
		if req.MaxAttempts != 0 || req.MaxDepth != 0 {
			t.Configure(QueueConfig{MaxAttempts: req.MaxAttempts, MaxDepth: req.MaxDepth})
		}
		t.Subscribe(req.Group)
		return nil, nil
	})
	rpc.HandleTyped(srv, "Consume", func(ctx *rpc.Ctx, req *ConsumeReq) ([]byte, error) {
		q, err := queueFor(broker, req.Topic, req.Group)
		if err != nil {
			return nil, err
		}
		wait := time.Duration(req.WaitNs)
		// Never park past the caller's deadline: a long-poll that outlives
		// the RPC would pin a server goroutine answering no one.
		if dl, ok := ctx.Deadline(); ok {
			if budget := time.Until(dl) - 10*time.Millisecond; budget < wait {
				wait = budget
			}
		}
		msg, ok := q.ReceiveWait(time.Duration(req.LeaseNs), wait)
		if !ok {
			if q.Closed() {
				// A coded error, not an empty poll: the consumer must fail
				// over to a sibling replica, not come back here.
				return nil, rpc.Errorf(rpc.CodeUnavailable, "mq: queue %q closed", q.Name())
			}
			return ctx.Reply(&ConsumeResp{})
		}
		return ctx.Reply(&ConsumeResp{ID: msg.ID, Key: msg.Key, Body: msg.Body, Attempts: msg.Attempts, OK: true})
	})
	srv.HandleStream("Push", func(ctx *rpc.Ctx, payload []byte, st *rpc.ServerStream) error {
		var req PushReq
		if err := codec.Unmarshal(payload, &req); err != nil {
			return rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
		}
		q, err := queueFor(broker, req.Topic, req.Group)
		if err != nil {
			return err
		}
		// The session owns every lease this stream hands out: whatever the
		// consumer has not settled when the stream ends — buffered in its
		// window, dropped in transit by the teardown, or in hand below — goes
		// straight back, so a failed-over consumer gets it now, not at lease
		// expiry.
		sess := q.Session()
		defer sess.Close()
		// Stream teardown (client gone, conn death, server shutdown) cancels
		// ctx, and that closes the session at once — the hand-back does not
		// wait for the loop below to come round.
		defer context.AfterFunc(ctx, sess.Close)()
		for {
			// A local cond wait, no RPCs; the slice only bounds how late an
			// expired lease on an idle queue is noticed.
			msg, ok := sess.ReceiveWait(time.Duration(req.LeaseNs), pushWaitSlice)
			select {
			case <-st.Done():
				return nil
			case <-ctx.Done():
				return nil
			default:
			}
			if !ok {
				if q.Closed() {
					// Same coded signal the poll path gives: fail over to a
					// sibling replica, don't come back here.
					return rpc.Errorf(rpc.CodeUnavailable, "mq: queue %q closed", q.Name())
				}
				continue
			}
			// Send blocks while the client's window is exhausted — backpressure
			// with the message leased, so a slow consumer throttles delivery
			// without breaking at-least-once.
			err := st.SendMsg(ConsumeResp{ID: msg.ID, Key: msg.Key, Body: msg.Body, Attempts: msg.Attempts, OK: true})
			if err != nil {
				return err // stream died mid-delivery
			}
		}
	})
	rpc.HandleTyped(srv, "Ack", func(ctx *rpc.Ctx, req *AckReq) ([]byte, error) {
		q, err := queueFor(broker, req.Topic, req.Group)
		if err != nil {
			return nil, err
		}
		if req.Key != "" {
			return ctx.Reply(&AckResp{OK: q.Remove(req.Key)})
		}
		return ctx.Reply(&AckResp{OK: q.Ack(req.ID)})
	})
	rpc.HandleTyped(srv, "Nack", func(ctx *rpc.Ctx, req *AckReq) ([]byte, error) {
		q, err := queueFor(broker, req.Topic, req.Group)
		if err != nil {
			return nil, err
		}
		if req.Key != "" {
			return ctx.Reply(&AckResp{OK: q.NackKey(req.Key)})
		}
		return ctx.Reply(&AckResp{OK: q.Nack(req.ID)})
	})
}

// Client is a typed view of the broker service over one transport.Caller.
// No app runs it — every app's broker client is a Partitioned one — and it
// is kept, with its push session streamDeliveries, only because
// benchmark/ladder.go's mq rungs build Client{C: …}; the first change to
// benchmark/ moves them to Partitioned and deletes both.
type Client struct{ C transport.Caller }

// Publish sends one message to a topic and returns after the broker has
// enqueued it for every subscribed group — the "returns after broker ack"
// contract async producers rely on.
func (c Client) Publish(ctx context.Context, topic string, body []byte) (uint64, error) {
	return c.PublishKey(ctx, topic, "", body)
}

// PublishKey is Publish with a message key, making retries against the
// broker idempotent (see Queue.PublishKey).
func (c Client) PublishKey(ctx context.Context, topic, key string, body []byte) (uint64, error) {
	var resp PublishResp
	if err := c.C.Call(ctx, "Publish", PublishReq{Topic: topic, Key: key, Body: body}, &resp); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Subscribe registers a consumer group on a topic with the given bounds.
func (c Client) Subscribe(ctx context.Context, topic, group string, cfg QueueConfig) error {
	return c.C.Call(ctx, "Subscribe", SubscribeReq{
		Topic: topic, Group: group, MaxAttempts: cfg.MaxAttempts, MaxDepth: cfg.MaxDepth,
	}, nil)
}

// Consume long-polls one message for the group.
func (c Client) Consume(ctx context.Context, topic, group string, lease, wait time.Duration) (ConsumeResp, error) {
	var resp ConsumeResp
	err := c.C.Call(ctx, "Consume", ConsumeReq{
		Topic: topic, Group: group, LeaseNs: int64(lease), WaitNs: int64(wait),
	}, &resp)
	return resp, err
}

// Ack settles a leased message as done. When the underlying transport
// supports fire-and-forget it goes one-way: a lost ack only costs a
// redelivery, which at-least-once consumers already tolerate, so the
// consumer loop skips the settle round trip on its hot path.
func (c Client) Ack(ctx context.Context, topic, group string, m ConsumeResp) error {
	req := AckReq{Topic: topic, Group: group, ID: m.ID}
	if ow, ok := c.C.(transport.OneWayCaller); ok {
		return ow.CallOneWay(ctx, "Ack", req)
	}
	return c.C.Call(ctx, "Ack", req, nil)
}

// Nack returns a leased message for redelivery (or dead-lettering, once
// attempts are exhausted). Synchronous: a nacking consumer is already off
// its hot path and the caller usually wants to know the settle landed.
func (c Client) Nack(ctx context.Context, topic, group string, m ConsumeResp) error {
	var resp AckResp
	return c.C.Call(ctx, "Nack", AckReq{Topic: topic, Group: group, ID: m.ID}, &resp)
}
