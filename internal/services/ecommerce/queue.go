package ecommerce

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// registerQueueMaster installs the queueMaster service: Enqueue publishes
// the order ID to the broker tier's orderQueue topic and returns once the
// broker has acknowledged it, and a pool of consumer workers in the
// "commit" consumer group receives, validates stock, decrements inventory,
// and marks each order committed. The broker redelivers any order whose
// worker dies mid-commit (lease expiry), so a crashed worker never loses an
// order; with one worker, commits stay strictly serialized — the point the
// paper identifies as constraining queueMaster's scalability at high load.

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

// overloadRetryBackoff spaces retries after a CodeOverloaded — redeliveries
// of an order whose commit the catalogue tier shed, re-enqueues of an order
// the full queue shed — so nobody hot-loops on a tier that just said "not
// now".
const overloadRetryBackoff = 5 * time.Millisecond

// consumePoll bounds each long-poll against the broker; it is also the
// worst-case delay between Close and a parked worker noticing.
const consumePoll = 250 * time.Millisecond

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
	bus       mq.Bus
	db        svcutil.DB
	catalogue svcutil.Caller
	wg        sync.WaitGroup
	stop      chan struct{}
	closed    atomic.Bool
}

func registerQueueMaster(srv *rpc.Server, bus mq.Bus, db svcutil.DB, catalogue svcutil.Caller, workers int) *queueMaster {
	if workers < 1 {
		workers = 1
	}
	qm := &queueMaster{bus: bus, db: db, catalogue: catalogue, stop: make(chan struct{})}
	svcutil.Handle(srv, "Enqueue", func(ctx *rpc.Ctx, req *GetOrderReq) (*struct{}, error) {
		if req.ID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "queueMaster: order ID required")
		}
		// Publish returns after the broker ack; a full topic surfaces the
		// broker's CodeOverloaded to the caller unchanged. The order ID is
		// the message key: an enqueue retried through a broker failover
		// dedups instead of committing twice.
		_, err := qm.bus.PublishKey(ctx, orderTopic, req.ID, []byte(req.ID))
		return nil, err
	})
	svcutil.Handle(srv, "Depth", func(ctx *rpc.Ctx, req *struct{}) (*struct{ Depth int64 }, error) {
		s, err := qm.bus.Stats(ctx, orderTopic, orderGroup)
		if err != nil {
			return nil, err
		}
		return &struct{ Depth int64 }{Depth: s.Lag()}, nil
	})
	qm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go qm.consume()
	}
	return qm
}

// consume is one commit worker: a member of the "commit" consumer group
// long-polling the broker. A commit shed by the catalogue tier
// (CodeOverloaded) is not a verdict on the order: the message is Nacked back
// to the broker and redelivered once the tier has room, instead of being
// swallowed into a StatusRejected like any other error.
func (qm *queueMaster) consume() {
	defer qm.wg.Done()
	ctx := context.Background()
	for {
		select {
		case <-qm.stop:
			return
		default:
		}
		cctx, cancel := context.WithTimeout(ctx, consumePoll+time.Second)
		msg, err := qm.bus.Consume(cctx, orderTopic, orderGroup, orderLease, consumePoll)
		cancel()
		if err != nil {
			if qm.closed.Load() {
				return
			}
			time.Sleep(overloadRetryBackoff) // broker unreachable: don't hot-loop
			continue
		}
		if !msg.OK {
			continue // poll expired empty
		}
		if retry := qm.commit(string(msg.Body)); retry && !qm.closed.Load() {
			qm.bus.Nack(ctx, orderTopic, orderGroup, msg) //nolint:errcheck // lease expiry redelivers anyway
			time.Sleep(overloadRetryBackoff)
			continue
		}
		// On teardown a still-shed order is acked away (it keeps StatusQueued
		// in the store) rather than spinning Close forever. The ack itself is
		// one-way: a lost ack only costs a redelivery.
		qm.bus.Ack(ctx, orderTopic, orderGroup, msg) //nolint:errcheck
	}
}

// commit applies one order's stock decrements. It returns true when the
// order must be redelivered: the catalogue shed the call with
// CodeOverloaded, meaning the tier was healthy but full, so the order stays
// StatusQueued rather than becoming a spurious rejection.
func (qm *queueMaster) commit(orderID string) (retry bool) {
	ctx := &rpc.Ctx{Context: context.Background(), Method: "commit", Service: "ecom.queueMaster"}
	order, found, err := loadOrder(ctx, qm.db, orderID)
	if err != nil || !found {
		return false
	}
	if order.Status != StatusQueued {
		return false // already processed (redelivery)
	}
	status := StatusCommitted
	var decremented []CartLine
	for _, line := range order.Lines {
		err := qm.catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: line.ItemID, Delta: -line.Quantity}, nil)
		if err == nil {
			decremented = append(decremented, line)
			continue
		}
		// Roll back the lines already taken.
		for _, d := range decremented {
			qm.catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: d.ItemID, Delta: d.Quantity}, nil) //nolint:errcheck
		}
		if transport.IsCode(err, transport.CodeOverloaded) {
			return true
		}
		status = StatusRejected
		break
	}
	order.Status = status
	storeOrder(ctx, qm.db, order) //nolint:errcheck // terminal status write is best-effort on teardown
	return false
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

// Close stops the consumer workers; a worker parked in a long poll notices
// within consumePoll. Unprocessed orders stay with the broker. Idempotent:
// both the deployment's Close and the app's OnClose hook may call it.
func (qm *queueMaster) Close() {
	if !qm.closed.CompareAndSwap(false, true) {
		return
	}
	close(qm.stop)
	qm.wg.Wait()
}
