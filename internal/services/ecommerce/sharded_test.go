package ecommerce

import (
	"context"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/svcutil"
)

// bootShardedEcom boots ecommerce with every docstore/kv tier running
// shards×replicas instances behind consistent-hash routing, seeded with the
// standard inventory.
func bootShardedEcom(t *testing.T, app *core.App, shards, replicas int) *Ecommerce {
	t.Helper()
	ec, err := New(app, Config{LayoutConfig: svcutil.LayoutConfig{Shards: shards, ShardReplicas: replicas}})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(ec.Close)
	items := []Item{
		{ID: "sock-red", Name: "Red Wool Sock", Tags: []string{"socks", "sale"}, PriceCents: 899, WeightGram: 120, Stock: 50},
		{ID: "sock-blue", Name: "Blue Cotton Sock", Tags: []string{"socks"}, PriceCents: 699, WeightGram: 100, Stock: 3},
		{ID: "boot-hike", Name: "Hiking Boot", Tags: []string{"shoes"}, PriceCents: 12999, WeightGram: 1400, Stock: 10},
	}
	if err := ec.SeedItems(items); err != nil {
		t.Fatal(err)
	}
	return ec
}

// TestShardedEndToEnd places an order end to end — cart, payment, queue
// commit, stock decrement — on a 3-shard×2-replica storage layout.
func TestShardedEndToEnd(t *testing.T) {
	app := core.NewApp("ecom-sharded", core.Options{})
	t.Cleanup(func() { app.Close() })
	ec := bootShardedEcom(t, app, 3, 2)
	ctx := context.Background()

	instances := ec.App.Registry.Instances("ecom.db-catalogue")
	if len(instances) != 6 {
		t.Fatalf("db-catalogue has %d instances, want 6", len(instances))
	}
	labels := make(map[string]int)
	for _, inst := range instances {
		labels[inst.Meta[shard.MetaShard]]++
	}
	if len(labels) != 3 {
		t.Fatalf("db-catalogue shard labels = %v, want 3 distinct", labels)
	}

	token := login(t, ec, "shopper", 100000)
	if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "shopper", ItemID: "sock-red", Quantity: 2}, nil); err != nil {
		t.Fatal(err)
	}
	var placed PlaceOrderResp
	if err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed); err != nil {
		t.Fatal(err)
	}
	final, err := ec.WaitForOrder(placed.Order.ID, 5*time.Second)
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
}

// TestShardedSurvivesReplicaFault errors the first replica of each
// db-catalogue shard: with two replicas per shard, item reads fall over to
// the healthy sibling.
func TestShardedSurvivesReplicaFault(t *testing.T) {
	inj := fault.NewInjector(17)
	app := core.NewApp("ecom-sharded-fault", core.Options{Network: inj.Wrap(rpc.NewMem())})
	t.Cleanup(func() { app.Close() })
	ec := bootShardedEcom(t, app, 2, 2)
	ctx := context.Background()

	seen := make(map[string]bool)
	for _, inst := range ec.App.Registry.Instances("ecom.db-catalogue") {
		label := inst.Meta[shard.MetaShard]
		if seen[label] {
			continue
		}
		seen[label] = true
		defer inj.Add(fault.Rule{To: "ecom.db-catalogue", Addr: inst.Addr, ErrCode: rpc.CodeUnavailable})()
	}

	var item Item
	if err := ec.Frontend.Do(ctx, "GET", "/catalogue/sock-red", nil, &item); err != nil || item.ID != "sock-red" {
		t.Fatalf("catalogue read under replica fault: err=%v item=%+v", err, item)
	}
}

// TestRecommendDegrades kills the recommender tier: the storefront serves an
// empty Degraded list.
func TestRecommendDegrades(t *testing.T) {
	boot := func(t *testing.T) (*Ecommerce, *fault.Injector) {
		inj := fault.NewInjector(19)
		app := core.NewApp("ecom-degrade", core.Options{Network: inj.Wrap(rpc.NewMem())})
		t.Cleanup(func() { app.Close() })
		ec, err := New(app, Config{})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		t.Cleanup(ec.Close)
		return ec, inj
	}

	t.Run("degraded", func(t *testing.T) {
		ec, inj := boot(t)
		token := login(t, ec, "buyer", 1000)
		defer inj.Add(fault.Rule{To: "ecom.recommender", ErrCode: rpc.CodeUnavailable})()
		var recs RecommendationsBody
		if err := ec.Frontend.Do(context.Background(), "GET", "/recommend?token="+token, nil, &recs); err != nil {
			t.Fatalf("degraded recommend should still serve: %v", err)
		}
		if !recs.Degraded || len(recs.Items) != 0 {
			t.Fatalf("recs = %+v, want degraded empty", recs)
		}
	})
}
