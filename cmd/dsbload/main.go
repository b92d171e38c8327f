// Command dsbload boots an application on the live in-process stack and
// drives it with the open-loop workload generator, printing a latency
// report — the suite's equivalent of running its client machines. Open-loop
// arrivals follow a Poisson schedule fixed by -qps, -duration and -seed, and
// the printed latency runs from each request's scheduled instant, so a late
// send counts against the system; closed-loop latency runs from the send.
//
// Usage:
//
//	dsbload -app social -qps 200 -duration 10s
//	dsbload -app ecommerce -qps 50 -duration 5s -closed -workers 16
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dsb/internal/core"
	"dsb/internal/loadgen"
	"dsb/internal/services/banking"
	"dsb/internal/services/ecommerce"
	"dsb/internal/services/socialnetwork"
)

func main() {
	var (
		appName  = flag.String("app", "social", "application: social | ecommerce | banking")
		qps      = flag.Float64("qps", 100, "open-loop arrival rate; latency is measured from the scheduled arrival")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		closed   = flag.Bool("closed", false, "closed-loop instead of open-loop")
		workers  = flag.Int("workers", 8, "closed-loop worker count")
		users    = flag.Int("users", 50, "seeded user count")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	do, cleanup, err := buildWorkload(*appName, *users, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsbload:", err)
		os.Exit(1)
	}
	defer cleanup()

	fmt.Printf("driving %s: qps=%.0f duration=%v closed=%v\n", *appName, *qps, *duration, *closed)
	var res loadgen.Result
	if *closed {
		res = loadgen.RunClosedLoop(context.Background(), *workers, 0, *duration, do)
	} else {
		res = loadgen.RunOpenLoop(context.Background(), loadgen.Schedule(loadgen.NewPoisson(*qps, *seed), *duration), 0, do)
	}
	fmt.Printf("issued=%d completed=%d errors=%d throughput=%.1f req/s\n",
		res.Issued, res.Completed, res.Errors, res.Throughput())
	fmt.Printf("latency: %v\n", res.Latency)
}

// buildWorkload boots the app and returns a request generator mixing the
// app's dominant query classes.
func buildWorkload(name string, users int, seed uint64) (func(context.Context, loadgen.Arrival) error, func(), error) {
	app := core.NewApp("dsbload", core.Options{DisableTracing: true})
	cleanup := func() { app.Close() }
	// The request generators returned below run concurrently under the
	// open-loop driver; loadgen.Source is the mutex-guarded seeded stream.
	rng := loadgen.NewSource(seed)
	ctx := context.Background()

	switch name {
	case "social":
		sn, err := socialnetwork.New(app, socialnetwork.Config{})
		if err != nil {
			return nil, cleanup, err
		}
		tokens := make([]string, users)
		names := make([]string, users)
		for i := range tokens {
			names[i] = fmt.Sprintf("user%d", i)
			if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: names[i], Password: "pw"}, nil); err != nil {
				return nil, cleanup, err
			}
			var lr socialnetwork.LoginResp
			if err := sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: names[i], Password: "pw"}, &lr); err != nil {
				return nil, cleanup, err
			}
			tokens[i] = lr.Token
		}
		// Zipf-popular accounts get followed more.
		zipf := loadgen.NewZipf(users, 1.0, seed)
		for i := 0; i < users*4; i++ {
			a, b := rng.IntN(users), zipf.Draw()
			if a != b {
				sn.Graph.Call(ctx, "Follow", socialnetwork.FollowReq{Follower: names[a], Followee: names[b]}, nil) //nolint:errcheck
			}
		}
		picker := loadgen.NewSkewedUsers(users, 30, seed)
		return func(ctx context.Context, _ loadgen.Arrival) error {
			u := picker.Draw()
			if rng.Float64() < 0.3 {
				return sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
					Token: tokens[u], Text: fmt.Sprintf("post %d from %s", rng.IntN(1000), names[u]),
				}, nil)
			}
			return sn.ReadTimeline.Call(ctx, "Read", socialnetwork.ReadTimelineReq{User: names[u], Limit: 10}, nil)
		}, cleanup, nil

	case "ecommerce":
		ec, err := ecommerce.New(app, ecommerce.Config{})
		if err != nil {
			return nil, cleanup, err
		}
		oldCleanup := cleanup
		cleanup = func() { ec.Close(); oldCleanup() }
		var items []ecommerce.Item
		for i := 0; i < 50; i++ {
			items = append(items, ecommerce.Item{
				ID: fmt.Sprintf("item-%d", i), Name: fmt.Sprintf("Item %d", i),
				Tags: []string{"general"}, PriceCents: int64(100 + i*37), WeightGram: 200, Stock: 1 << 40,
			})
		}
		if err := ec.SeedItems(items); err != nil {
			return nil, cleanup, err
		}
		tokens := make([]string, users)
		names := make([]string, users)
		for i := range tokens {
			names[i] = fmt.Sprintf("buyer%d", i)
			if err := ec.User.Call(ctx, "Register", ecommerce.RegisterUserReq{Username: names[i], Password: "pw", BalanceCents: 1 << 40}, nil); err != nil {
				return nil, cleanup, err
			}
			var lr ecommerce.LoginResp
			if err := ec.User.Call(ctx, "Login", ecommerce.LoginReq{Username: names[i], Password: "pw"}, &lr); err != nil {
				return nil, cleanup, err
			}
			tokens[i] = lr.Token
		}
		return func(ctx context.Context, _ loadgen.Arrival) error {
			u := rng.IntN(users)
			if rng.Float64() < 0.85 {
				return ec.Catalogue.Call(ctx, "List", ecommerce.ListItemsReq{Limit: 20}, nil)
			}
			item := items[rng.IntN(len(items))].ID
			if err := ec.Cart.Call(ctx, "Add", ecommerce.CartAddReq{Username: names[u], ItemID: item, Quantity: 1}, nil); err != nil {
				return err
			}
			return ec.Orders.Call(ctx, "Place", ecommerce.PlaceOrderReq{Token: tokens[u], Shipping: "standard"}, nil)
		}, cleanup, nil

	case "banking":
		b, err := banking.New(app, banking.Config{})
		if err != nil {
			return nil, cleanup, err
		}
		tokens := make([]string, users)
		accounts := make([]string, users)
		for i := range tokens {
			tokens[i], accounts[i], err = b.Onboard(fmt.Sprintf("cust%d", i), 80000_00, 1<<30)
			if err != nil {
				return nil, cleanup, err
			}
		}
		return func(ctx context.Context, _ loadgen.Arrival) error {
			from := rng.IntN(users)
			to := rng.IntN(users)
			if to == from {
				to = (to + 1) % users
			}
			return b.Payments.Call(ctx, "Pay", banking.PaymentReq{
				Token: tokens[from], From: accounts[from], To: accounts[to],
				AmountCents: int64(1 + rng.IntN(500)),
			}, nil)
		}, cleanup, nil
	}
	return nil, cleanup, fmt.Errorf("unknown app %q (social | ecommerce | banking)", name)
}
