// The e-commerce example walks the full Sockshop-style checkout the paper's
// Figure 6 describes: browse the catalogue, search, fill a cart, and place
// an order that flows through shipping quotes, discounts, payment
// authorization, transaction IDs, invoicing, and the queueMaster's
// serialized commit — then shows the recommender reacting to the purchase.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dsb/internal/core"
	"dsb/internal/services/ecommerce"
)

func main() {
	app := core.NewApp("ecommerce-example", core.Options{})
	ec, err := ecommerce.New(app, ecommerce.Config{})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer func() { ec.Close(); app.Close() }()

	if err := ec.SeedItems([]ecommerce.Item{
		{ID: "sock-wool", Name: "Wool Hiking Sock", Tags: []string{"socks", "outdoor"}, PriceCents: 1299, WeightGram: 140, Stock: 40},
		{ID: "sock-run", Name: "Running Sock", Tags: []string{"socks", "sale"}, PriceCents: 899, WeightGram: 90, Stock: 25},
		{ID: "boot-trail", Name: "Trail Boot", Tags: []string{"shoes", "outdoor"}, PriceCents: 15999, WeightGram: 1500, Stock: 12},
		{ID: "bottle", Name: "Steel Bottle", Tags: []string{"outdoor", "clearance"}, PriceCents: 2499, WeightGram: 350, Stock: 30},
	}); err != nil {
		log.Fatalf("seed: %v", err)
	}

	ctx := context.Background()
	fe := ec.Frontend

	if err := fe.Do(ctx, "POST", "/register", ecommerce.LoginReq{Username: "hiker", Password: "pw"}, nil); err != nil {
		log.Fatalf("register: %v", err)
	}
	var login ecommerce.LoginResp
	if err := fe.Do(ctx, "POST", "/login", ecommerce.LoginReq{Username: "hiker", Password: "pw"}, &login); err != nil {
		log.Fatalf("login: %v", err)
	}

	var items []ecommerce.Item
	if err := fe.Do(ctx, "GET", "/catalogue?tag=outdoor", nil, &items); err != nil {
		log.Fatalf("catalogue: %v", err)
	}
	fmt.Printf("outdoor catalogue (%d items):\n", len(items))
	for _, it := range items {
		fmt.Printf("  %-12s $%-8.2f stock=%d tags=%v\n", it.ID, float64(it.PriceCents)/100, it.Stock, it.Tags)
	}

	var found []ecommerce.Item
	if err := fe.Do(ctx, "GET", "/search?q=sock", nil, &found); err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("\nsearch \"sock\": %d hits\n", len(found))

	for _, line := range []ecommerce.CartBody{
		{Token: login.Token, ItemID: "sock-wool", Quantity: 2},
		{Token: login.Token, ItemID: "boot-trail", Quantity: 1},
	} {
		if err := fe.Do(ctx, "POST", "/cart", line, nil); err != nil {
			log.Fatalf("cart: %v", err)
		}
	}

	var opts []ecommerce.ShippingOption
	if err := fe.Do(ctx, "GET", "/shipping?weight=1780", nil, &opts); err != nil {
		log.Fatalf("shipping: %v", err)
	}
	fmt.Println("\nshipping quotes for the cart:")
	for _, o := range opts {
		fmt.Printf("  %-10s $%-7.2f %d day(s)\n", o.Method, float64(o.CostCents)/100, o.Days)
	}

	var order ecommerce.Order
	if err := fe.Do(ctx, "POST", "/orders", ecommerce.PlaceOrderReq{Token: login.Token, Shipping: "express"}, &order); err != nil {
		log.Fatalf("order: %v", err)
	}
	fmt.Printf("\norder %s placed:\n", order.ID)
	fmt.Printf("  items     $%.2f\n  discount -$%.2f\n  shipping  $%.2f\n  TOTAL     $%.2f\n",
		float64(order.ItemsCents)/100, float64(order.DiscountCents)/100,
		float64(order.ShippingCents)/100, float64(order.TotalCents)/100)
	fmt.Printf("  txn=%s invoice=%s status=%s\n", order.TransactionID, order.InvoiceID, order.Status)

	final, err := ec.WaitForOrder(order.ID, 5*time.Second)
	if err != nil {
		log.Fatalf("commit: %v", err)
	}
	fmt.Printf("  queueMaster committed it: status=%s\n", final.Status)

	var item ecommerce.Item
	if err := fe.Do(ctx, "GET", "/catalogue/sock-wool", nil, &item); err != nil {
		log.Fatalf("stock check: %v", err)
	}
	fmt.Printf("  sock-wool stock is now %d (was 40)\n", item.Stock)

	var recs ecommerce.RecommendationsBody
	if err := fe.Do(ctx, "GET", "/recommend?token="+login.Token, nil, &recs); err != nil {
		log.Fatalf("recommend: %v", err)
	}
	fmt.Println("\nrecommended after this purchase:")
	if recs.Degraded {
		fmt.Println("  (recommender degraded — empty list served)")
	}
	for _, it := range recs.Items {
		fmt.Printf("  %-12s %s\n", it.ID, it.Name)
	}
}
