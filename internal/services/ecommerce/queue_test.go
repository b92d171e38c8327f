package ecommerce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/docstore"
	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// bootQueueRig wires a queueMaster against a real order store, a networked
// broker tier, and a stub catalogue whose AdjustStock behavior is driven by
// adjust(callNumber).
func bootQueueRig(t *testing.T, adjust func(call int) error) (broker *mq.Broker, enqueue svcutil.Caller, db svcutil.DB) {
	t.Helper()
	app := core.NewApp("ecom-queue", core.Options{})
	t.Cleanup(func() { app.Close() })
	store := docstore.NewStore()
	if _, err := app.StartRPC("ecom.db-orders", func(s *rpc.Server) {
		docstore.RegisterService(s, store)
	}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if _, err := app.StartRPC("ecom.catalogue", func(s *rpc.Server) {
		svcutil.Handle(s, "AdjustStock", func(ctx *rpc.Ctx, req *AdjustStockReq) (*GetItemResp, error) {
			if err := adjust(int(calls.Add(1))); err != nil {
				return nil, err
			}
			return &GetItemResp{Found: true}, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	broker = mq.NewBroker()
	ConfigureOrderBroker(broker)
	if _, err := app.StartRPC("ecom.broker", func(s *rpc.Server) {
		mq.RegisterService(s, broker)
	}); err != nil {
		t.Fatal(err)
	}
	dbC, err := app.RPC("ecom.queueMaster", "ecom.db-orders")
	if err != nil {
		t.Fatal(err)
	}
	db = svcutil.DB{C: dbC}
	cat, err := app.RPC("ecom.queueMaster", "ecom.catalogue")
	if err != nil {
		t.Fatal(err)
	}
	busC, err := app.RPC("ecom.queueMaster", "ecom.broker")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.StartRPC("ecom.queueMaster", func(s *rpc.Server) {
		bus := mq.Client{C: busC}
		mq.Serve(s, bus, orderTopic, orderGroup, orderLease, registerQueueMaster(s, bus, db, cat).commit)
	}); err != nil {
		t.Fatal(err)
	}
	enqueue, err = app.RPC("client", "ecom.queueMaster")
	if err != nil {
		t.Fatal(err)
	}
	return broker, enqueue, db
}

func queueOrder(t *testing.T, db svcutil.DB, id string) {
	t.Helper()
	ctx := &rpc.Ctx{Context: context.Background(), Method: "test", Service: "test"}
	if err := storeOrder(ctx, db, Order{
		ID: id, Username: "u", Status: StatusQueued,
		Lines: []CartLine{{ItemID: "sock", Quantity: 1}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadedCommitRetriesNotRejects sheds the first AdjustStock calls
// with CodeOverloaded: the order must stay queued and be redelivered until
// the tier has room, then commit — never a spurious StatusRejected.
func TestOverloadedCommitRetriesNotRejects(t *testing.T) {
	broker, enqueue, db := bootQueueRig(t, func(call int) error {
		if call <= 3 {
			return rpc.Errorf(rpc.CodeOverloaded, "catalogue: admission shed")
		}
		return nil
	})
	ctx := context.Background()
	queueOrder(t, db, "ord-1")
	if err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: "ord-1"}, nil); err != nil {
		t.Fatal(err)
	}

	rctx := &rpc.Ctx{Context: ctx, Method: "test", Service: "test"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		order, found, err := loadOrder(rctx, db, "ord-1")
		if err != nil {
			t.Fatal(err)
		}
		if found && order.Status == StatusRejected {
			t.Fatal("overloaded commit was swallowed into StatusRejected")
		}
		if found && order.Status == StatusCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("order still %q after shed retries", order.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The commit is visible before the (one-way) ack necessarily lands at
	// the broker; poll the group backlog to zero rather than snapshot it.
	lagDeadline := time.Now().Add(5 * time.Second)
	for {
		if lag := broker.Topic(orderTopic).GroupLag(orderGroup); lag == 0 {
			break
		} else if time.Now().After(lagDeadline) {
			t.Fatalf("order group not drained: lag=%d", lag)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEnqueueShedsWhenFull parks the commit worker in its first order's
// AdjustStock, fills the queue to maxQueueDepth, and expects the next
// Enqueue to surface CodeOverloaded to the caller instead of queueing
// without bound.
func TestEnqueueShedsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	_, enqueue, db := bootQueueRig(t, func(int) error {
		<-gate
		return nil
	})
	t.Cleanup(func() { close(gate) }) // registered after the rig's: runs first, so Close finds no parked worker
	ctx := context.Background()
	// ord-0 is real and its commit never returns: the worker holds it, the
	// stream window behind it stays leased, and nothing drains — queued and
	// in-flight both count against the cap.
	queueOrder(t, db, "ord-0")
	if err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: "ord-0"}, nil); err != nil {
		t.Fatal(err)
	}
	// Filler IDs must be distinct: Enqueue keys messages by order ID, so a
	// repeated ID dedups broker-side instead of deepening the queue.
	for i := 1; i < maxQueueDepth; i++ {
		if err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: fmt.Sprintf("ord-filler-%d", i)}, nil); err != nil {
			t.Fatalf("filler %d of %d: %v", i, maxQueueDepth-1, err)
		}
	}
	err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: "ord-overflow"}, nil)
	if !transport.IsCode(err, transport.CodeOverloaded) {
		t.Fatalf("enqueue beyond cap = %v, want CodeOverloaded", err)
	}
}

// TestPlaceWaitsOutFullQueue fills the order queue to maxQueueDepth behind a
// commit worker parked in its first AdjustStock, then places one more order.
// By then the buyer is charged and the order stored, so a shed Enqueue must
// not fail the checkout: Place re-enqueues until the queue has room, or until
// its caller's deadline leaves no room to wait, and only then reports the
// shed.
func TestPlaceWaitsOutFullQueue(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Duration // 0 = none: the worker is released instead
	}{
		{"worker released", 0},
		{"caller deadline", 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			var open sync.Once
			release := func() { open.Do(func() { close(gate) }) }
			var sheds atomic.Int64
			ec := bootEcom(t, func(next transport.Invoker) transport.Invoker {
				return func(ctx context.Context, call *transport.Call) error {
					if call.Method == "AdjustStock" {
						<-gate
					}
					err := next(ctx, call)
					if call.Method == "Enqueue" && transport.IsCode(err, transport.CodeOverloaded) {
						sheds.Add(1)
					}
					return err
				}
			})
			t.Cleanup(release) // registered after bootEcom's: runs first, so Close finds no parked worker
			bg := context.Background()
			token := login(t, ec, "shopper", 100000)
			place := func(ctx context.Context) (Order, error) {
				if err := ec.Cart.Call(bg, "Add", CartAddReq{Username: "shopper", ItemID: "sock-red", Quantity: 1}, nil); err != nil {
					t.Error(err)
				}
				var placed PlaceOrderResp
				err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed)
				return placed.Order, err
			}

			first, err := place(bg)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the commit worker to lease the first order", func() bool {
				return ec.Broker.GroupStats(orderTopic, orderGroup).InFlight == 1
			})
			topic := ec.Broker.Brokers()[0].Topic(orderTopic)
			for i := 1; i < maxQueueDepth; i++ {
				// Fillers name no stored order: once released, the worker
				// acks them away without touching stock.
				id := fmt.Sprintf("filler-%d", i)
				if _, err := topic.PublishKey(id, []byte(id)); err != nil {
					t.Fatalf("filler %d: %v", i, err)
				}
			}

			ctx := bg
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(bg, tc.deadline)
				defer cancel()
			}
			type outcome struct {
				order Order
				err   error
			}
			done := make(chan outcome, 1)
			go func() {
				o, err := place(ctx)
				done <- outcome{o, err}
			}()

			if tc.deadline > 0 {
				got := <-done
				if !transport.IsCode(got.err, transport.CodeOverloaded) {
					t.Fatalf("Place against a full queue under a %v deadline = %v, want CodeOverloaded", tc.deadline, got.err)
				}
				if n := sheds.Load(); n < 2 {
					t.Fatalf("Place gave up after %d shed enqueue(s); it must keep trying while the deadline has room", n)
				}
				return
			}

			waitFor(t, "Place to re-enqueue after a shed", func() bool { return sheds.Load() >= 2 })
			select {
			case got := <-done:
				t.Fatalf("Place returned (%v) while the queue was still full", got.err)
			default:
			}
			release()
			got := <-done
			if got.err != nil {
				t.Fatalf("Place after the queue drained: %v", got.err)
			}
			for _, id := range []string{first.ID, got.order.ID} {
				final, err := ec.WaitForOrder(id, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if final.Status != StatusCommitted {
					t.Fatalf("order %s is %s, want %s", id, final.Status, StatusCommitted)
				}
			}
			// Exactly once: every publish (two orders + fillers; the retried
			// Enqueues were shed, not published) is acked, none redelivered.
			var s mq.Stats
			waitFor(t, "every published order to be acked", func() bool {
				s = ec.Broker.GroupStats(orderTopic, orderGroup)
				return s.Acked == s.Published
			})
			if s.Published != maxQueueDepth+1 || s.Redelivered != 0 || s.DeadLettered != 0 {
				t.Fatalf("broker stats %+v, want %d published, 0 redelivered, 0 dead-lettered", s, maxQueueDepth+1)
			}
			var item GetItemResp
			if err := ec.Catalogue.Call(bg, "Get", GetItemReq{ID: "sock-red"}, &item); err != nil {
				t.Fatal(err)
			}
			if item.Item.Stock != 48 {
				t.Fatalf("stock = %d after two one-sock orders from 50, want 48", item.Item.Stock)
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
