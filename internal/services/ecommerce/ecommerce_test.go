package ecommerce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/graph"
	"dsb/internal/rpc"
	"dsb/internal/trace"
	"dsb/internal/transport"
)

func bootEcom(t *testing.T, mw ...transport.Middleware) *Ecommerce {
	t.Helper()
	app := core.NewApp("ecom-test", core.Options{})
	ec, err := New(app, Config{Middleware: mw})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(func() {
		ec.Close()
		app.Close()
	})
	items := []Item{
		{ID: "sock-red", Name: "Red Wool Sock", Tags: []string{"socks", "sale"}, PriceCents: 899, WeightGram: 120, Stock: 50},
		{ID: "sock-blue", Name: "Blue Cotton Sock", Tags: []string{"socks"}, PriceCents: 699, WeightGram: 100, Stock: 3},
		{ID: "boot-hike", Name: "Hiking Boot", Tags: []string{"shoes"}, PriceCents: 12999, WeightGram: 1400, Stock: 10},
		{ID: "hat-sun", Name: "Sun Hat", Tags: []string{"hats", "clearance"}, PriceCents: 1999, WeightGram: 180, Stock: 5},
	}
	if err := ec.SeedItems(items); err != nil {
		t.Fatal(err)
	}
	return ec
}

func login(t *testing.T, ec *Ecommerce, user string, cents int64) string {
	t.Helper()
	ctx := context.Background()
	if err := ec.User.Call(ctx, "Register", RegisterUserReq{Username: user, Password: "pw", BalanceCents: cents}, nil); err != nil {
		t.Fatal(err)
	}
	var lr LoginResp
	if err := ec.User.Call(ctx, "Login", LoginReq{Username: user, Password: "pw"}, &lr); err != nil {
		t.Fatal(err)
	}
	return lr.Token
}

func TestPlaceOrderEndToEnd(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	token := login(t, ec, "shopper", 100000)

	// Fill the cart: 2 red socks (20% sale) + 1 boot.
	if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "shopper", ItemID: "sock-red", Quantity: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "shopper", ItemID: "boot-hike", Quantity: 1}, nil); err != nil {
		t.Fatal(err)
	}

	var placed PlaceOrderResp
	if err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "express"}, &placed); err != nil {
		t.Fatal(err)
	}
	o := placed.Order
	// Money math: items = 2*899 + 12999 = 14797; discount = 20% of 2*899 =
	// 359 (floor); shipping express for 1640g => 700 + 90*2 = 880.
	if o.ItemsCents != 14797 {
		t.Fatalf("items = %d", o.ItemsCents)
	}
	if o.DiscountCents != 359 {
		t.Fatalf("discount = %d", o.DiscountCents)
	}
	if o.ShippingCents != 880 {
		t.Fatalf("shipping = %d", o.ShippingCents)
	}
	if want := o.ItemsCents - o.DiscountCents + o.ShippingCents; o.TotalCents != want {
		t.Fatalf("total = %d, want %d", o.TotalCents, want)
	}
	if o.TransactionID == "" || o.InvoiceID == "" {
		t.Fatalf("missing txn/invoice: %+v", o)
	}

	// Balance debited exactly once.
	var bal BalanceResp
	if err := ec.User.Call(ctx, "Balance", AccountReq{Username: "shopper"}, &bal); err != nil {
		t.Fatal(err)
	}
	if bal.BalanceCents != 100000-o.TotalCents {
		t.Fatalf("balance = %d", bal.BalanceCents)
	}

	// queueMaster commits it and stock drops.
	final, err := ec.WaitForOrder(o.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCommitted {
		t.Fatalf("status = %s", final.Status)
	}
	var item GetItemResp
	if err := ec.Catalogue.Call(ctx, "Get", GetItemReq{ID: "sock-red"}, &item); err != nil {
		t.Fatal(err)
	}
	if item.Item.Stock != 48 {
		t.Fatalf("stock = %d", item.Item.Stock)
	}

	// Cart was cleared.
	var cart CartResp
	if err := ec.Cart.Call(ctx, "Get", CartReq{Username: "shopper"}, &cart); err != nil {
		t.Fatal(err)
	}
	if len(cart.Lines) != 0 {
		t.Fatalf("cart = %+v", cart.Lines)
	}
}

func TestOrderEmptyCartRejected(t *testing.T) {
	ec := bootEcom(t)
	token := login(t, ec, "empty", 1000)
	err := ec.Orders.Call(context.Background(), "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, nil)
	if !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("empty cart: %v", err)
	}
}

func TestOrderInsufficientFunds(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	token := login(t, ec, "poor", 100)
	ec.Cart.Call(ctx, "Add", CartAddReq{Username: "poor", ItemID: "boot-hike", Quantity: 1}, nil) //nolint:errcheck
	err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, nil)
	if !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("poor order: %v", err)
	}
	// Balance untouched after failed authorization.
	var bal BalanceResp
	ec.User.Call(ctx, "Balance", AccountReq{Username: "poor"}, &bal) //nolint:errcheck
	if bal.BalanceCents != 100 {
		t.Fatalf("balance = %d", bal.BalanceCents)
	}
}

func TestOversellRejectedByQueueMaster(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	// Two shoppers both try to buy all 3 blue socks; stock check at
	// placement passes for both, but serialized commit rejects the loser.
	// The loser is rejected either at placement (if the winner's commit
	// already drained stock) or by queueMaster at commit time; in neither
	// case may stock go negative or both orders succeed.
	tokens := []string{login(t, ec, "fast", 10000), login(t, ec, "slow", 10000)}
	users := []string{"fast", "slow"}
	committed, rejected := 0, 0
	for i, token := range tokens {
		if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: users[i], ItemID: "sock-blue", Quantity: 3}, nil); err != nil {
			t.Fatal(err)
		}
		var placed PlaceOrderResp
		err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed)
		if rpc.IsCode(err, rpc.CodeConflict) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		final, err := ec.WaitForOrder(placed.Order.ID, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch final.Status {
		case StatusCommitted:
			committed++
		case StatusRejected:
			rejected++
		}
	}
	if committed != 1 || rejected != 1 {
		t.Fatalf("committed=%d rejected=%d", committed, rejected)
	}
	// Stock is exactly zero — no oversell, no phantom restock.
	var item GetItemResp
	ec.Catalogue.Call(ctx, "Get", GetItemReq{ID: "sock-blue"}, &item) //nolint:errcheck
	if item.Item.Stock != 0 {
		t.Fatalf("stock = %d", item.Item.Stock)
	}
}

func TestOrdersCommitInPublicationOrder(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	token := login(t, ec, "serial", 1000000)
	var ids []string
	for i := 0; i < 5; i++ {
		if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "serial", ItemID: "sock-red", Quantity: 1}, nil); err != nil {
			t.Fatal(err)
		}
		var placed PlaceOrderResp
		if err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, placed.Order.ID)
	}
	for _, id := range ids {
		if _, err := ec.WaitForOrder(id, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var item GetItemResp
	ec.Catalogue.Call(ctx, "Get", GetItemReq{ID: "sock-red"}, &item) //nolint:errcheck
	if item.Item.Stock != 45 {
		t.Fatalf("stock = %d, want 45", item.Item.Stock)
	}
}

func TestFrontendBrowseAndCheckout(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	fe := ec.Frontend

	if err := fe.Do(ctx, "POST", "/register", LoginReq{Username: "webby", Password: "pw"}, nil); err != nil {
		t.Fatal(err)
	}
	var lr LoginResp
	if err := fe.Do(ctx, "POST", "/login", LoginReq{Username: "webby", Password: "pw"}, &lr); err != nil {
		t.Fatal(err)
	}

	var items []Item
	if err := fe.Do(ctx, "GET", "/catalogue", nil, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("catalogue = %d items", len(items))
	}
	if err := fe.Do(ctx, "GET", "/catalogue?tag=socks", nil, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("socks = %d items", len(items))
	}
	var one Item
	if err := fe.Do(ctx, "GET", "/catalogue/boot-hike", nil, &one); err != nil {
		t.Fatal(err)
	}
	if one.Name != "Hiking Boot" {
		t.Fatalf("item = %+v", one)
	}
	if err := fe.Do(ctx, "GET", "/search?q=sock", nil, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("search = %d items", len(items))
	}

	// Cart -> order via REST.
	if err := fe.Do(ctx, "POST", "/cart", CartBody{Token: lr.Token, ItemID: "hat-sun", Quantity: 1}, nil); err != nil {
		t.Fatal(err)
	}
	var order Order
	if err := fe.Do(ctx, "POST", "/orders", PlaceOrderReq{Token: lr.Token, Shipping: "standard"}, &order); err != nil {
		t.Fatal(err)
	}
	// Clearance hat: 50% off 1999 = 999 discount.
	if order.DiscountCents != 999 {
		t.Fatalf("discount = %d", order.DiscountCents)
	}
	final, err := ec.WaitForOrder(order.ID, 5*time.Second)
	if err != nil || final.Status != StatusCommitted {
		t.Fatalf("final = %+v, %v", final, err)
	}
	var got Order
	if err := fe.Do(ctx, "GET", "/orders/"+order.ID, nil, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCommitted {
		t.Fatalf("status over REST = %s", got.Status)
	}

	// Wishlist + recommender.
	if err := fe.Do(ctx, "POST", "/wishlist", WishBody{Token: lr.Token, ItemID: "sock-red"}, nil); err != nil {
		t.Fatal(err)
	}
	var wish []string
	if err := fe.Do(ctx, "GET", "/wishlist?token="+lr.Token, nil, &wish); err != nil {
		t.Fatal(err)
	}
	if len(wish) != 1 || wish[0] != "sock-red" {
		t.Fatalf("wishlist = %v", wish)
	}
}

func TestRecommenderCoTag(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	token := login(t, ec, "buyer", 100000)
	// Buy a red sock; recommendation should surface the other sock.
	ec.Cart.Call(ctx, "Add", CartAddReq{Username: "buyer", ItemID: "sock-red", Quantity: 1}, nil) //nolint:errcheck
	var placed PlaceOrderResp
	if err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed); err != nil {
		t.Fatal(err)
	}
	if _, err := ec.WaitForOrder(placed.Order.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var recs RecommendationsBody
	if err := ec.Frontend.Do(ctx, "GET", "/recommend?token="+token, nil, &recs); err != nil {
		t.Fatal(err)
	}
	if recs.Degraded || len(recs.Items) == 0 || recs.Items[0].ID != "sock-blue" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestShippingQuoteBands(t *testing.T) {
	ec := bootEcom(t)
	var opts []ShippingOption
	if err := ec.Frontend.Do(context.Background(), "GET", "/shipping?weight=2500", nil, &opts); err != nil {
		t.Fatal(err)
	}
	if len(opts) != 3 {
		t.Fatalf("options = %+v", opts)
	}
	// 2500g rounds to 3kg: standard = 300 + 150.
	if opts[0].Method != "standard" || opts[0].CostCents != 450 {
		t.Fatalf("standard = %+v", opts[0])
	}
}

// Regression: Debit used to be a Get, a check and a Put over two RPCs, so two
// concurrent checkouts by one buyer both read the opening balance and one
// debit vanished. accountInfo is a replicated tier, so nothing inside the
// service can serialise them; the store's AddNum does.
func TestDebitConcurrentNoLostUpdates(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	const workers, debits, opening = 8, 200, 100000
	login(t, ec, "spender", opening)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < debits; i++ {
				if err := ec.User.Call(ctx, "Debit", AuthorizePaymentReq{Username: "spender", AmountCents: 1}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var bal BalanceResp
	if err := ec.User.Call(ctx, "Balance", AccountReq{Username: "spender"}, &bal); err != nil {
		t.Fatal(err)
	}
	if want := int64(opening - workers*debits); bal.BalanceCents != want {
		t.Fatalf("balance = %d after %d one-cent debits, want %d (lost updates)", bal.BalanceCents, workers*debits, want)
	}
	// The floor still holds, and a missing account is still NotFound.
	if err := ec.User.Call(ctx, "Debit", AuthorizePaymentReq{Username: "spender", AmountCents: opening}, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("overdraft: want CodeUnauthorized, got %v", err)
	}
	if err := ec.User.Call(ctx, "Debit", AuthorizePaymentReq{Username: "nobody", AmountCents: 1}, nil); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("unknown account: want CodeNotFound, got %v", err)
	}
}

// Regression: AdjustStock was a Get and a Put over two RPCs, so concurrent
// commits (OrderWorkers > 1) each read the same stock and one decrement
// vanished. It is one store-side add now, and the cached stock moves with it.
func TestAdjustStockConcurrentNoLostUpdates(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	const workers, adjusts, opening = 8, 50, 1000
	item := Item{ID: "yarn", Name: "Yarn", PriceCents: 100, Stock: opening}
	if err := ec.Catalogue.Call(ctx, "Add", AddItemReq{Item: item}, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adjusts; i++ {
				if err := ec.Catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: "yarn", Delta: -1}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(opening - workers*adjusts)
	var got GetItemResp
	if err := ec.Catalogue.Call(ctx, "Get", GetItemReq{ID: "yarn"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.Item.Stock != want {
		t.Fatalf("stock = %d after %d decrements of %d, want %d (lost updates)", got.Item.Stock, workers*adjusts, opening, want)
	}
	var listed ItemsResp
	if err := ec.Catalogue.Call(ctx, "List", ListItemsReq{}, &listed); err != nil {
		t.Fatal(err)
	}
	for _, it := range listed.Items {
		if it.ID == "yarn" && it.Stock != want {
			t.Fatalf("stored stock = %d, want %d", it.Stock, want)
		}
	}
	// The floor and a missing item keep the codes queueMaster.commit reads.
	if err := ec.Catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: "yarn", Delta: -opening}, nil); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("oversell: want CodeConflict, got %v", err)
	}
	if err := ec.Catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: "nothing", Delta: -1}, nil); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("unknown item: want CodeNotFound, got %v", err)
	}
}

// Regression: Cart.Add was a Get and a Put over two RPCs, so concurrent adds
// to one cart — a first add that creates it included — lost each other's
// quantities. A line is a number in the cart's document now.
func TestCartAddConcurrentNoLostUpdates(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	const workers, adds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "crowd", ItemID: "sock-red", Quantity: 1}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var cart CartResp
	if err := ec.Cart.Call(ctx, "Get", CartReq{Username: "crowd"}, &cart); err != nil {
		t.Fatal(err)
	}
	if len(cart.Lines) != 1 || cart.Lines[0].Quantity != workers*adds {
		t.Fatalf("cart = %+v after %d adds of one sock, want one line of %d", cart.Lines, workers*adds, workers*adds)
	}
}

// A cart's first add creates the cart in the same store-side step: two first
// adds of different items racing on one new cart keep both lines, and each
// add costs the cart tier one store hop, where a missing add, a create and a
// second add took three.
func TestCartFirstAddsRaceKeepBothLines(t *testing.T) {
	var hops atomic.Int64 // calls from the cart tier to its store
	ec := bootEcom(t, func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			if call.Target == "ecom.db-carts" {
				hops.Add(1)
			}
			return next(ctx, call)
		}
	})
	ctx := context.Background()
	const carts = 20
	for i := 0; i < carts; i++ {
		user := fmt.Sprintf("pair-%d", i)
		var wg sync.WaitGroup
		for _, item := range []string{"sock-red", "hat-sun"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: user, ItemID: item, Quantity: 1}, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		var cart CartResp
		if err := ec.Cart.Call(ctx, "Get", CartReq{Username: user}, &cart); err != nil {
			t.Fatal(err)
		}
		if len(cart.Lines) != 2 {
			t.Fatalf("cart %s = %+v after two racing first adds, want both lines", user, cart.Lines)
		}
	}
	if got, want := hops.Load(), int64(3*carts); got != want {
		t.Fatalf("cart tier made %d store calls for %d carts of two adds and a Get each, want %d", got, carts, want)
	}
}

// The services graph.Ecommerce draws as leaves under orders make no call of
// their own in a traced checkout: the declared graph and the live one agree
// at the orders fan-out. A leaf's server span parents no span.
func TestCheckoutLeavesMatchGraph(t *testing.T) {
	var orders *graph.Node
	var walk func(n *graph.Node)
	walk = func(n *graph.Node) {
		if n.Service == "orders" && orders == nil {
			orders = n
		}
		for _, c := range n.Calls {
			walk(c.Node)
		}
	}
	walk(graph.Ecommerce().Root)
	leaves := map[string]bool{}
	for _, c := range orders.Calls {
		if len(c.Node.Calls) == 0 {
			leaves["ecom."+c.Node.Service] = true
		}
	}
	if len(leaves) == 0 {
		t.Fatal("graph.Ecommerce draws no leaf under orders")
	}

	ec := bootEcom(t)
	ctx := context.Background()
	token := login(t, ec, "traced", 100000)
	if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "traced", ItemID: "sock-red", Quantity: 1}, nil); err != nil {
		t.Fatal(err)
	}
	var placed PlaceOrderResp
	if err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed); err != nil {
		t.Fatal(err)
	}
	ec.App.FlushTraces()
	served := map[string]bool{}
	for _, id := range ec.App.Traces.TraceIDs() {
		spans := ec.App.Traces.Spans(id)
		parents := map[trace.SpanID]bool{}
		for _, s := range spans {
			parents[s.Parent] = true
		}
		for _, s := range spans {
			if s.Kind != trace.KindServer || !leaves[s.Service] {
				continue
			}
			served[s.Service] = true
			if parents[s.SpanID] {
				t.Errorf("%s.%s called out; graph.Ecommerce draws it as a leaf under orders", s.Service, s.Operation)
			}
		}
	}
	for leaf := range leaves {
		if !served[leaf] {
			t.Errorf("no span from %s in the checkout's traces", leaf)
		}
	}
}

// TestInvoicingReplicasIssueDistinctIDs: invoicing is replicable, so a
// second replica must not issue an ID the first already gave another
// customer's invoice (the Put would overwrite it).
func TestInvoicingReplicasIssueDistinctIDs(t *testing.T) {
	ec := bootEcom(t)
	ctx := context.Background()
	if _, err := ec.App.StartRPC("ecom.invoicing", func(s *rpc.Server) {
		registerInvoicing(s, ec.stack.DB("invoicing", "db-invoices"))
	}); err != nil {
		t.Fatal(err)
	}
	invoicing, err := ec.App.RPC("test", "ecom.invoicing")
	if err != nil {
		t.Fatal(err)
	}
	issued := map[string]string{} // invoice ID → order ID
	for _, order := range []string{"ord-1-000001", "ord-1-000002", "ord-1-000003", "ord-1-000004"} {
		var resp InvoiceResp
		if err := invoicing.Call(ctx, "Issue", InvoiceReq{OrderID: order, Username: "u-" + order, TotalCents: 100}, &resp); err != nil {
			t.Fatal(err)
		}
		if prev, dup := issued[resp.Invoice.ID]; dup {
			t.Fatalf("invoice %s issued for order %s and again for %s", resp.Invoice.ID, prev, order)
		}
		issued[resp.Invoice.ID] = order
	}
}
