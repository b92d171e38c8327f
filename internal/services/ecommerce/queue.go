package ecommerce

import (
	"context"
	"time"

	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// The queueMaster service: Enqueue publishes the order ID to the broker
// tier's orderQueue topic and returns once the broker has acknowledged it,
// and a pool of workers in the "commit" consumer group receives, validates
// stock, decrements inventory, and marks each order committed. The broker
// redelivers any order whose worker dies mid-commit (lease expiry), so a
// crashed worker never loses an order; with one worker, commits stay
// strictly serialized — the point the paper identifies as constraining
// queueMaster's scalability at high load.

// orderTopic and orderGroup name the broker topic orders flow through and
// the consumer group that commits them.
const (
	orderTopic = "orderQueue"
	orderGroup = "commit"
)

// maxQueueDepth bounds the order queue, enforced broker-side against
// queued AND in-flight orders (a queue with everything leased out is
// saturated, not empty). Beyond it, Publish sheds with CodeOverloaded —
// the same admission contract every other tier speaks — so callers see a
// retryable "not now" instead of unbounded queueing delay.
const maxQueueDepth = 256

// orderMaxAttempts is the poison guard: an order redelivered this many
// times moves to the dead-letter queue instead of head-of-line-blocking
// the topic forever. Sized far above any transient-overload retry run.
const orderMaxAttempts = 512

// overloadRetryBackoff spaces re-enqueues of an order the full queue shed
// with CodeOverloaded, so Place does not hot-loop on a tier that just said
// "not now". (Redeliveries of an order whose commit the catalogue shed are
// spaced by the consumer worker itself.)
const overloadRetryBackoff = 5 * time.Millisecond

// orderLease bounds one commit attempt before the broker assumes the
// worker died and redelivers.
const orderLease = 30 * time.Second

// ConfigureOrderBroker declares the order topic on a broker with the
// depth/retry bounds above and subscribes the commit group — it must run at
// broker boot, before any producer, so no publish misses the group.
func ConfigureOrderBroker(b *mq.Broker) {
	t := b.Topic(orderTopic)
	t.Configure(mq.QueueConfig{MaxDepth: maxQueueDepth, MaxAttempts: orderMaxAttempts})
	t.Subscribe(orderGroup)
}

type queueMaster struct {
	db        svcutil.DB
	catalogue svcutil.Caller
}

// registerQueueMaster installs Enqueue on srv and returns the queueMaster
// whose commit the composition root serves the commit group with.
func registerQueueMaster(srv *rpc.Server, bus mq.Bus, db svcutil.DB, catalogue svcutil.Caller) *queueMaster {
	qm := &queueMaster{db: db, catalogue: catalogue}
	svcutil.Handle(srv, "Enqueue", func(ctx *rpc.Ctx, req *GetOrderReq) (*struct{}, error) {
		if req.ID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "queueMaster: order ID required")
		}
		// Publish returns after the broker ack; a full topic surfaces the
		// broker's CodeOverloaded to the caller unchanged. The order ID is
		// the message key: an enqueue retried through a broker failover
		// dedups instead of committing twice.
		_, err := bus.PublishKey(ctx, orderTopic, req.ID, []byte(req.ID))
		return nil, err
	})
	return qm
}

// commit is the commit group's handler: it applies one order's stock
// decrements, under the delivery's context and for no longer than its lease,
// so a hung catalogue cannot park the worker. Only the catalogue's own
// verdict (out of stock, no such item) rejects the order; any other failure —
// shed, unreachable, out of time — says nothing about a paid order and is
// returned: the worker nacks and the order stays StatusQueued for redelivery.
func (qm *queueMaster) commit(parent context.Context, msg mq.ConsumeResp) error {
	// A cancel, not a deadline: every hop below would pay to carry one.
	attempt, cancel := context.WithCancel(parent)
	defer time.AfterFunc(orderLease, cancel).Stop()
	defer cancel()
	ctx := &rpc.Ctx{Context: attempt, Method: "commit", Service: "ecom.queueMaster"}
	order, found, err := loadOrder(ctx, qm.db, string(msg.Body))
	if err != nil {
		return err
	}
	if !found || order.Status != StatusQueued {
		return nil // nothing stored under the ID, or already processed (redelivery)
	}
	status := StatusCommitted
	var decremented []CartLine
	for _, line := range order.Lines {
		err := qm.catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: line.ItemID, Delta: -line.Quantity}, nil)
		if err == nil {
			decremented = append(decremented, line)
			continue
		}
		// Roll back on a context of its own: the attempt's may be what ran out.
		undo, done := context.WithTimeout(context.WithoutCancel(parent), orderLease)
		for _, d := range decremented {
			qm.catalogue.Call(undo, "AdjustStock", AdjustStockReq{ItemID: d.ItemID, Delta: d.Quantity}, nil) //nolint:errcheck
		}
		done()
		if !transport.IsCode(err, transport.CodeConflict) && !transport.IsCode(err, transport.CodeNotFound) {
			return err
		}
		status = StatusRejected
		break
	}
	order.Status = status
	storeOrder(ctx, qm.db, order) //nolint:errcheck // terminal status write is best-effort on teardown
	return nil
}

// enqueueOrder hands a charged, stored order to queueMaster. A full queue is
// the retryable "not now" maxQueueDepth promises — failing the checkout on it
// would strand the order StatusQueued forever — so it becomes backpressure:
// wait overloadRetryBackoff and enqueue again (idempotent, the order ID is the
// message key) until the order lands or ctx has no room left for another wait
// and another try, and only then hand the shed to the caller.
func enqueueOrder(ctx context.Context, queueMaster svcutil.Caller, orderID string) error {
	for {
		err := queueMaster.Call(ctx, "Enqueue", GetOrderReq{ID: orderID}, nil)
		if !transport.IsCode(err, transport.CodeOverloaded) {
			return err
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 2*overloadRetryBackoff {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(overloadRetryBackoff):
		}
	}
}
