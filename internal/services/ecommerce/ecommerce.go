package ecommerce

import (
	"context"
	"fmt"
	"time"

	"dsb/internal/core"
	"dsb/internal/mq"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

func errNotFound(what string) error { return rpc.NotFoundf("no such resource %q", what) }

// Config sizes the deployment.
type Config struct {
	// LayoutConfig shards and replicates the store, cache and broker tiers
	// and carries the inter-tier middleware.
	svcutil.LayoutConfig
	// OrderWorkers sizes the queueMaster commit pool (default 1, the
	// paper's serialized layout). Workers are members of one broker
	// consumer group, so raising it parallelizes commits without
	// double-delivering orders.
	OrderWorkers int
}

// replicable names the stages safe to run multi-instance: all their state
// lives in the db/mc tiers downstream.
var replicable = map[string]bool{
	"catalogue": true, "accountInfo": true, "search": true, "discounts": true,
	"cart": true, "wishlist": true, "shipping": true, "authorization": true,
	"payment": true, "invoicing": true, "orders": true, "recommender": true,
}

// Ecommerce is a running deployment.
type Ecommerce struct {
	App      *core.App
	Frontend *rest.Client

	Catalogue svcutil.Caller
	Orders    svcutil.Caller
	User      svcutil.Caller
	Cart      svcutil.Caller

	// Broker is the message-broker tier behind the async order path;
	// exported so tests and experiments can read backlog stats directly
	// across every broker instance.
	Broker *mq.Cluster

	stack *svcutil.Stack
}

// New boots the E-commerce application.
func New(app *core.App, cfg Config) (*Ecommerce, error) {
	stack := cfg.Stack(app, "ecom.", replicable)
	if err := stack.StartStores("db-catalogue", "db-carts", "db-orders", "db-accounts", "db-invoices", "db-wishlists"); err != nil {
		return nil, err
	}
	if err := stack.StartCaches("mc-catalogue", "mc-accounts"); err != nil {
		return nil, err
	}

	cl, db, mc, start := stack.Caller, stack.DB, stack.KV, stack.Start

	ec := &Ecommerce{App: app, stack: stack}

	start("catalogue", func(s *rpc.Server) {
		registerCatalogue(s, db("catalogue", "db-catalogue"), mc("catalogue", "mc-catalogue"))
	})
	start("accountInfo", func(s *rpc.Server) {
		registerAccountInfo(s, db("accountInfo", "db-accounts"), mc("accountInfo", "mc-accounts"))
	})
	start("search", func(s *rpc.Server) { registerSearch(s, cl("search", "catalogue")) })
	start("discounts", registerDiscounts)
	start("cart", func(s *rpc.Server) {
		registerCart(s, db("cart", "db-carts"))
	})
	start("wishlist", func(s *rpc.Server) {
		registerWishlist(s, db("wishlist", "db-wishlists"))
	})
	start("shipping", registerShipping)
	start("authorization", func(s *rpc.Server) {
		registerAuthorization(s, cl("authorization", "accountInfo"))
	})
	start("payment", func(s *rpc.Server) {
		registerPayment(s, cl("payment", "authorization"), cl("payment", "accountInfo"))
	})
	start("transactionID", func(s *rpc.Server) { registerTransactionID(s) })
	start("invoicing", func(s *rpc.Server) {
		registerInvoicing(s, db("invoicing", "db-invoices"))
	})
	// The broker tier boots just before queueMaster: its configure hook
	// declares the order topic and subscribes the commit group, so no
	// publish can miss the group.
	ec.Broker = stack.StartBroker("broker", ConfigureOrderBroker)
	start("queueMaster", func(s *rpc.Server) {
		bus := stack.MQ("queueMaster", "broker")
		qm := registerQueueMaster(s, bus, db("queueMaster", "db-orders"), cl("queueMaster", "catalogue"))
		for i := 0; i < max(cfg.OrderWorkers, 1); i++ {
			stack.Serve(s, bus, orderTopic, orderGroup, orderLease, qm.commit)
		}
	})
	start("orders", func(s *rpc.Server) {
		registerOrders(s, ordersDeps{
			user:        cl("orders", "accountInfo"),
			cart:        cl("orders", "cart"),
			catalogue:   cl("orders", "catalogue"),
			shipping:    cl("orders", "shipping"),
			discounts:   cl("orders", "discounts"),
			payment:     cl("orders", "payment"),
			transaction: cl("orders", "transactionID"),
			invoicing:   cl("orders", "invoicing"),
			queueMaster: cl("orders", "queueMaster"),
			db:          db("orders", "db-orders"),
		})
	})
	start("recommender", func(s *rpc.Server) {
		registerRecommender(s, cl("recommender", "orders"), cl("recommender", "catalogue"))
	})
	if err := stack.Boot(); err != nil {
		return nil, fmt.Errorf("ecommerce: boot: %w", err)
	}

	if _, err := app.StartREST("ecom.frontend", func(s *rest.Server) {
		registerFrontend(s, frontendDeps{
			user:        cl("frontend", "accountInfo"),
			catalogue:   cl("frontend", "catalogue"),
			search:      cl("frontend", "search"),
			cart:        cl("frontend", "cart"),
			wishlist:    cl("frontend", "wishlist"),
			orders:      cl("frontend", "orders"),
			recommender: cl("frontend", "recommender"),
			shipping:    cl("frontend", "shipping"),
		})
	}); err != nil {
		return nil, err
	}

	var err error
	if ec.Frontend, err = app.REST("client", "ecom.frontend"); err != nil {
		return nil, err
	}
	if ec.Catalogue, err = app.RPC("client", "ecom.catalogue"); err != nil {
		return nil, err
	}
	if ec.Orders, err = app.RPC("client", "ecom.orders"); err != nil {
		return nil, err
	}
	if ec.User, err = app.RPC("client", "ecom.accountInfo"); err != nil {
		return nil, err
	}
	if ec.Cart, err = app.RPC("client", "ecom.cart"); err != nil {
		return nil, err
	}
	return ec, nil
}

// SeedItems loads the inventory.
func (ec *Ecommerce) SeedItems(items []Item) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, it := range items {
		if err := ec.Catalogue.Call(ctx, "Add", AddItemReq{Item: it}, nil); err != nil {
			return err
		}
	}
	return nil
}

// WaitForOrder polls until the order leaves the queued state or the
// timeout elapses, returning the final order.
func (ec *Ecommerce) WaitForOrder(id string, timeout time.Duration) (Order, error) {
	deadline := time.Now().Add(timeout)
	ctx := context.Background()
	for {
		var resp GetOrderResp
		if err := ec.Orders.Call(ctx, "Get", GetOrderReq{ID: id}, &resp); err != nil {
			return Order{}, err
		}
		if resp.Found && resp.Order.Status != StatusQueued {
			return resp.Order, nil
		}
		if time.Now().After(deadline) {
			return resp.Order, fmt.Errorf("ecommerce: order %s still %s after %v", id, resp.Order.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops the queueMaster commit workers and leaves the rest of the
// deployment up; closing the app stops them too. Unprocessed orders stay
// with the broker.
func (ec *Ecommerce) Close() { ec.stack.StopConsumers() }
