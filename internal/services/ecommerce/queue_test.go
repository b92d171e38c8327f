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
	"dsb/internal/vtime"
)

// queueRig is a queueMaster wired against a real order store, a networked
// broker tier, and a stub catalogue.
type queueRig struct {
	broker    *mq.Broker
	enqueue   svcutil.Caller
	db        svcutil.DB
	catalogue *rpc.Server
	adjusts   atomic.Int64 // AdjustStock calls the catalogue has handled
	stop      func()
}

// bootQueueRig boots the rig; adjust(callNumber) is what the catalogue's
// AdjustStock answers.
func bootQueueRig(t *testing.T, adjust func(call int) error) *queueRig {
	t.Helper()
	app := core.NewApp("ecom-queue", core.Options{})
	rig := &queueRig{stop: func() { app.Close() }}
	store := docstore.NewStore()
	if _, err := app.StartRPC("ecom.db-orders", func(s *rpc.Server) {
		docstore.RegisterService(s, store)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.StartRPC("ecom.catalogue", func(s *rpc.Server) {
		rig.catalogue = s
		svcutil.Handle(s, "AdjustStock", func(ctx *rpc.Ctx, req *AdjustStockReq) (*GetItemResp, error) {
			if err := adjust(int(rig.adjusts.Add(1))); err != nil {
				return nil, err
			}
			return &GetItemResp{Found: true}, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	rig.broker = mq.NewBroker()
	ConfigureOrderBroker(rig.broker)
	if _, err := app.StartRPC("ecom.broker", func(s *rpc.Server) {
		mq.RegisterService(s, rig.broker)
	}); err != nil {
		t.Fatal(err)
	}
	dbC, err := app.RPC("ecom.queueMaster", "ecom.db-orders")
	if err != nil {
		t.Fatal(err)
	}
	rig.db = svcutil.DB{C: dbC}
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
		mq.Serve(s, bus, orderTopic, orderGroup, orderLease, registerQueueMaster(s, bus, rig.db, cat).commit)
	}); err != nil {
		t.Fatal(err)
	}
	if rig.enqueue, err = app.RPC("client", "ecom.queueMaster"); err != nil {
		t.Fatal(err)
	}
	return rig
}

func (rig *queueRig) status(t *testing.T, id string) string {
	t.Helper()
	order, found, err := loadOrder(&rpc.Ctx{Context: context.Background(), Method: "test", Service: "test"}, rig.db, id)
	if err != nil || !found {
		t.Fatalf("order %s: found=%v err=%v", id, found, err)
	}
	return order.Status
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
	vtime.Run(t, func() {
		rig := bootQueueRig(t, func(call int) error {
			if call <= 3 {
				return rpc.Errorf(rpc.CodeOverloaded, "catalogue: admission shed")
			}
			return nil
		})
		defer rig.stop()
		queueOrder(t, rig.db, "ord-1")
		if err := rig.enqueue.Call(context.Background(), "Enqueue", GetOrderReq{ID: "ord-1"}, nil); err != nil {
			t.Fatal(err)
		}
		vtime.Wait() // the first attempt was shed; the worker sits out its pause
		if got := rig.status(t, "ord-1"); got != StatusQueued || rig.adjusts.Load() != 1 {
			t.Fatalf("after the first shed: status %q, %d AdjustStock calls; want still queued after 1", got, rig.adjusts.Load())
		}
		vtime.Advance(time.Second) // room for every redelivery pause
		vtime.Wait()
		if got := rig.status(t, "ord-1"); got != StatusCommitted || rig.adjusts.Load() != 4 {
			t.Fatalf("status %q after %d AdjustStock calls, want committed on the 4th", got, rig.adjusts.Load())
		}
		if s := rig.broker.Topic(orderTopic).Subscribe(orderGroup).Stats(); s.Lag() != 0 || s.Redelivered != 3 {
			t.Fatalf("order group %+v, want drained after 3 redeliveries", s)
		}
	})
}

// TestHungCatalogueRedeliversThenCommits hangs the catalogue under a commit
// for exactly one lease. The attempt gives up with its lease instead of
// parking the worker for good, the failure is not a verdict on the order, and
// the redelivery one worker pause later finds the catalogue back: the order
// commits then, with stock taken exactly once.
func TestHungCatalogueRedeliversThenCommits(t *testing.T) {
	vtime.Run(t, func() {
		rig := bootQueueRig(t, func(int) error { return nil })
		defer rig.stop()
		group := rig.broker.Topic(orderTopic).Subscribe(orderGroup)
		queueOrder(t, rig.db, "ord-1")
		rig.catalogue.Hang()
		start := time.Now()
		if err := rig.enqueue.Call(context.Background(), "Enqueue", GetOrderReq{ID: "ord-1"}, nil); err != nil {
			t.Fatal(err)
		}
		vtime.Advance(orderLease - time.Nanosecond)
		if s := group.Stats(); rig.status(t, "ord-1") != StatusQueued || s.InFlight != 1 || s.Redelivered != 0 {
			t.Fatalf("a nanosecond inside the lease: status %q, group %+v; want the first attempt still out", rig.status(t, "ord-1"), s)
		}
		vtime.Advance(time.Nanosecond)
		rig.catalogue.Resume()
		vtime.Wait() // the attempt has failed and been nacked; the worker sits out its pause
		// The broker's lease and the attempt's deadline run out in the same
		// instant, so the order goes back once or twice — never zero times.
		if s := group.Stats(); rig.status(t, "ord-1") != StatusQueued || s.Redelivered == 0 || rig.adjusts.Load() != 0 {
			t.Fatalf("at the lease's end: status %q, group %+v, %d AdjustStock calls; want still queued, redelivered, stock untouched",
				rig.status(t, "ord-1"), s, rig.adjusts.Load())
		}
		const workerPause = 5 * time.Millisecond // mq.Serve's spacing after a Nack
		vtime.Advance(workerPause)
		vtime.Wait()
		if at := time.Since(start); at != orderLease+workerPause {
			t.Fatalf("clock at %v, want %v", at, orderLease+workerPause)
		}
		if s := group.Stats(); rig.status(t, "ord-1") != StatusCommitted || s.Lag() != 0 || rig.adjusts.Load() != 1 {
			t.Fatalf("one pause after the lease: status %q, group %+v, %d AdjustStock calls; want committed, drained, stock taken once",
				rig.status(t, "ord-1"), s, rig.adjusts.Load())
		}
	})
}

// TestEnqueueShedsWhenFull parks the commit worker in its first order's
// AdjustStock, fills the queue to maxQueueDepth, and expects the next
// Enqueue to surface CodeOverloaded to the caller instead of queueing
// without bound.
func TestEnqueueShedsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	rig := bootQueueRig(t, func(int) error {
		<-gate
		return nil
	})
	defer rig.stop()
	defer close(gate) // first, so that Close finds no parked worker
	enqueue, db := rig.enqueue, rig.db
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
	vtime.Run(t, func() {
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
				vtime.Wait()
				if s := ec.Broker.GroupStats(orderTopic, orderGroup); s.InFlight != 1 {
					t.Fatalf("group %+v, want the commit worker holding the first order", s)
				}
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
					// Shed at 0, 5, ... 45ms: the last leaves less than two backoffs.
					if n, want := sheds.Load(), int64(tc.deadline/overloadRetryBackoff); n != want {
						t.Fatalf("Place gave up after %d shed enqueue(s), want %d: it must keep trying while the deadline has room", n, want)
					}
					return
				}

				vtime.Advance(overloadRetryBackoff)
				vtime.Wait()
				if n := sheds.Load(); n != 2 {
					t.Fatalf("%d shed enqueue(s) one backoff in, want 2: Place re-enqueues after a shed", n)
				}
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
				vtime.Wait()
				s := ec.Broker.GroupStats(orderTopic, orderGroup)
				if s.Acked != s.Published || s.Published != maxQueueDepth+1 || s.Redelivered != 0 || s.DeadLettered != 0 {
					t.Fatalf("broker stats %+v, want %d published and acked, 0 redelivered, 0 dead-lettered", s, maxQueueDepth+1)
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
	})
}
