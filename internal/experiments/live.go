package experiments

import (
	"context"
	"fmt"
	"time"

	"dsb/internal/core"
	"dsb/internal/metrics"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/services/ecommerce"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/svcutil"
)

// QueryDiversity reproduces the Section 3.8 observations on the live
// in-process stack: composePost latency grows with embedded media, reposts
// are the slowest Social Network query class, and placing an E-commerce
// order costs 1–2 orders of magnitude more than browsing the catalogue.
func QueryDiversity() *Report {
	r := &Report{
		ID:     "querydiv",
		Title:  "Per-query-class latency on the live stack (medians of 30 requests)",
		Header: []string{"application", "query class", "median latency"},
	}
	ctx := context.Background()

	// --- Social Network ---
	app := core.NewApp("qd-social", core.Options{DisableTracing: true})
	defer app.Close()
	sn, err := socialnetwork.New(app, socialnetwork.Config{SearchShards: 2})
	if err != nil {
		r.Notes = append(r.Notes, "social boot: "+err.Error())
		return r
	}
	if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: "alice", Password: "pw"}, nil); err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	var login socialnetwork.LoginResp
	sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: "alice", Password: "pw"}, &login) //nolint:errcheck
	// Followers so the fan-out path is real.
	for i := 0; i < 8; i++ {
		u := fmt.Sprintf("f%d", i)
		sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: u, Password: "pw"}, nil) //nolint:errcheck
		sn.Graph.Call(ctx, "Follow", socialnetwork.FollowReq{Follower: u, Followee: "alice"}, nil) //nolint:errcheck
	}

	measure := func(n int, fn func(i int) error) time.Duration {
		lats := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				r.Notes = append(r.Notes, "measurement error: "+err.Error())
				return 0
			}
			lats = append(lats, time.Since(t0).Nanoseconds())
		}
		return time.Duration(metrics.Quantiles(lats, 50)[0])
	}

	var lastPost socialnetwork.Post
	textLat := measure(30, func(i int) error {
		var resp socialnetwork.ComposePostResp
		err := sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
			Token: login.Token, Text: fmt.Sprintf("text-only post %d with a few words", i),
		}, &resp)
		lastPost = resp.Post
		return err
	})
	img := make([]byte, 64<<10)
	imageLat := measure(30, func(i int) error {
		return sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
			Token: login.Token, Text: fmt.Sprintf("image post %d", i), Images: [][]byte{img},
		}, nil)
	})
	vid := make([]byte, 2<<20)
	videoLat := measure(10, func(i int) error {
		return sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
			Token: login.Token, Text: fmt.Sprintf("video post %d", i), Videos: [][]byte{vid},
		}, nil)
	})
	repostLat := measure(30, func(i int) error {
		return sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
			Token: login.Token, Text: "so true", RepostOf: lastPost.ID,
		}, nil)
	})
	readLat := measure(30, func(i int) error {
		return sn.ReadTimeline.Call(ctx, "Read", socialnetwork.ReadTimelineReq{User: "f0", Limit: 10}, nil)
	})
	r.Rows = append(r.Rows,
		[]string{"socialNetwork", "readTimeline", fmt.Sprint(readLat)},
		[]string{"socialNetwork", "composePost (text)", fmt.Sprint(textLat)},
		[]string{"socialNetwork", "composePost (image)", fmt.Sprint(imageLat)},
		[]string{"socialNetwork", "composePost (video)", fmt.Sprint(videoLat)},
		[]string{"socialNetwork", "repost", fmt.Sprint(repostLat)},
	)

	// --- E-commerce ---
	app2 := core.NewApp("qd-ecom", core.Options{DisableTracing: true})
	ec, err := ecommerce.New(app2, ecommerce.Config{})
	if err != nil {
		r.Notes = append(r.Notes, "ecom boot: "+err.Error())
		return r
	}
	defer func() { ec.Close(); app2.Close() }()
	ec.SeedItems([]ecommerce.Item{ //nolint:errcheck
		{ID: "item-1", Name: "Socks", Tags: []string{"socks"}, PriceCents: 500, WeightGram: 100, Stock: 100000},
	})
	ec.User.Call(ctx, "Register", ecommerce.RegisterUserReq{Username: "buyer", Password: "pw", BalanceCents: 1 << 40}, nil) //nolint:errcheck
	var elogin ecommerce.LoginResp
	ec.User.Call(ctx, "Login", ecommerce.LoginReq{Username: "buyer", Password: "pw"}, &elogin) //nolint:errcheck

	browseLat := measure(30, func(i int) error {
		return ec.Catalogue.Call(ctx, "List", ecommerce.ListItemsReq{Limit: 20}, &ecommerce.ItemsResp{})
	})
	orderLat := measure(30, func(i int) error {
		if err := ec.Cart.Call(ctx, "Add", ecommerce.CartAddReq{Username: "buyer", ItemID: "item-1", Quantity: 1}, nil); err != nil {
			return err
		}
		return ec.Orders.Call(ctx, "Place", ecommerce.PlaceOrderReq{Token: elogin.Token, Shipping: "standard"}, nil)
	})
	r.Rows = append(r.Rows,
		[]string{"ecommerce", "browse catalogue", fmt.Sprint(browseLat)},
		[]string{"ecommerce", "place order", fmt.Sprint(orderLat)},
	)
	if browseLat > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("order/browse latency ratio = %.1fx (paper: 1-2 orders of magnitude)", float64(orderLat)/float64(browseLat)))
	}
	if textLat > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("repost/text ratio = %.1fx (paper: reposts are the slowest Social Network class)", float64(repostLat)/float64(textLat)))
	}
	return r
}

// RPCvsREST compares the two communication substrates on identical
// payloads over the in-memory transport — Section 7's framework trade-off.
// The byte-payload rows send an unregistered message on the RPC side (the
// codec's reflect plans) and base64 inside encoding/json on the REST side;
// the last row sends what the applications send — a registered type, a
// 20-post timeline page — so both substrates run their generated codecs and
// what is left between them is framing against HTTP/1.
func RPCvsREST() *Report {
	r := &Report{
		ID:     "rpcrest",
		Title:  "RPC vs REST: median round-trip per payload size (live, in-memory transport)",
		Header: []string{"payload", "RPC", "REST", "REST/RPC"},
	}
	rows, err := rpcVsREST()
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{row.payload, fmt.Sprint(row.rpc), fmt.Sprint(row.rest),
			fmt.Sprintf("%.1fx", float64(row.rest)/float64(row.rpc))})
	}
	r.Notes = append(r.Notes,
		"paper: RPCs introduce considerably lower latencies than HTTP at low load; both suffer network processing at high load")
	return r
}

// rpcRESTRow is one payload's median round trip on each substrate.
type rpcRESTRow struct {
	payload   string
	rpc, rest time.Duration
}

// rpcVsREST measures the rows of RPCvsREST. A sample is an RPC call and then
// a REST call of the same payload, so host noise lands on both substrates.
func rpcVsREST() ([]rpcRESTRow, error) {
	ctx := context.Background()
	net := rpc.NewMem()

	type echoMsg struct{ Data []byte }
	rpcSrv := rpc.NewServer("echo")
	svcutil.Handle(rpcSrv, "Echo", func(c *rpc.Ctx, req *echoMsg) (*echoMsg, error) { return req, nil })
	svcutil.Handle(rpcSrv, "Page", func(c *rpc.Ctx, req *socialnetwork.ReadPostsResp) (*socialnetwork.ReadPostsResp, error) {
		return req, nil
	})
	rpcAddr, err := rpcSrv.Start(net, "echo-rpc:0")
	if err != nil {
		return nil, err
	}
	defer rpcSrv.Close()
	rpcClient := rpc.NewClient(net, "echo", rpcAddr)
	defer rpcClient.Close()

	restSrv := rest.NewServer("echo")
	restSrv.Handle("POST /echo", func(c *rest.Ctx, body []byte) (any, error) {
		var req struct {
			Data []byte `json:"data"`
		}
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		return req, nil
	})
	restSrv.Handle("POST /page", func(c *rest.Ctx, body []byte) (any, error) {
		var posts []socialnetwork.Post
		if err := rest.DecodeJSON(body, &posts); err != nil {
			return nil, err
		}
		return posts, nil
	})
	restAddr, err := restSrv.Start(net, "echo-rest:0")
	if err != nil {
		return nil, err
	}
	defer restSrv.Close()
	restClient := rest.NewClient(net, "echo", restAddr)
	defer restClient.Close()

	var rows []rpcRESTRow
	measure := func(payload string, rpcCall, restCall func() error) error {
		var lats [2][]int64
		for i := 0; i < 200; i++ {
			for side, call := range []func() error{rpcCall, restCall} {
				t0 := time.Now()
				if err := call(); err != nil {
					return fmt.Errorf("%s: %w", payload, err)
				}
				lats[side] = append(lats[side], time.Since(t0).Nanoseconds())
			}
		}
		rows = append(rows, rpcRESTRow{payload,
			time.Duration(metrics.Quantiles(lats[0], 50)[0]), time.Duration(metrics.Quantiles(lats[1], 50)[0])})
		return nil
	}
	for _, size := range []int{64, 1024, 16 << 10, 128 << 10} {
		payload := make([]byte, size)
		req := echoMsg{Data: payload}
		err := measure(fmt.Sprintf("%dB", size), func() error {
			var out echoMsg
			return rpcClient.Call(ctx, "Echo", req, &out)
		}, func() error {
			var out struct {
				Data []byte `json:"data"`
			}
			return restClient.Do(ctx, "POST", "/echo", map[string][]byte{"data": payload}, &out)
		})
		if err != nil {
			return nil, err
		}
	}
	page := socialnetwork.ReadPostsResp{Posts: make([]socialnetwork.Post, 20)}
	for i := range page.Posts {
		author, tagged, url := fmt.Sprintf("user%03d", i*7), fmt.Sprintf("user%03d", i*3), fmt.Sprintf("http://sho.rt/%06x", i*31)
		page.Posts[i] = socialnetwork.Post{
			ID: fmt.Sprintf("%016x", 0x1234567890+i), Author: author,
			Text:     fmt.Sprintf("post %06x by %s hello @%s see %s", i*977, author, tagged, url),
			Mentions: []string{tagged}, URLs: []string{url}, MediaIDs: []string{},
			CreatedAt: 1700000000000000000 + int64(i),
		}
	}
	err = measure("20-post page (typed)", func() error {
		var out socialnetwork.ReadPostsResp
		return rpcClient.Call(ctx, "Page", &page, &out)
	}, func() error {
		var out []socialnetwork.Post
		return restClient.Do(ctx, "POST", "/page", page.Posts, &out)
	})
	return rows, err
}
