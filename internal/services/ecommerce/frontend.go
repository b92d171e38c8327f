package ecommerce

import (
	"dsb/internal/rest"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// REST bodies for the node.js-style front-end whose RPC requests carry the
// username the server takes from the verified token. POST /orders decodes
// straight into PlaceOrderReq.

// CartBody mutates the caller's cart.
type CartBody struct {
	Token    string `json:"token"`
	ItemID   string `json:"item_id"`
	Quantity int64  `json:"quantity"`
}

// WishBody adds to the wishlist.
type WishBody struct {
	Token  string `json:"token"`
	ItemID string `json:"item_id"`
}

// RecommendationsBody is the GET /recommend response. Degraded marks an
// empty list served because the recommender tier was unreachable — the
// non-critical hop the storefront sacrifices rather than failing the page.
type RecommendationsBody struct {
	Items    []Item `json:"items"`
	Degraded bool   `json:"degraded,omitempty"`
}

type frontendDeps struct {
	user        svcutil.Caller
	catalogue   svcutil.Caller
	search      svcutil.Caller
	cart        svcutil.Caller
	wishlist    svcutil.Caller
	orders      svcutil.Caller
	recommender svcutil.Caller
	shipping    svcutil.Caller
}

// registerFrontend installs the REST front door (the node.js front-end of
// Figure 6). The recommendation hop is non-critical: a failure there yields
// an empty Degraded list instead of an error.
func registerFrontend(srv *rest.Server, d frontendDeps) {
	accounts.HandleRegister(srv, d.user, 50000)
	accounts.HandleLogin(srv, d.user)

	srv.Handle("GET /catalogue", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp ItemsResp
		if err := d.catalogue.Call(ctx, "List", ListItemsReq{Tag: ctx.Query("tag"), Limit: 50}, &resp); err != nil {
			return nil, err
		}
		return resp.Items, nil
	})
	srv.Handle("GET /catalogue/{id}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp GetItemResp
		if err := d.catalogue.Call(ctx, "Get", GetItemReq{ID: ctx.PathValue("id")}, &resp); err != nil {
			return nil, err
		}
		if !resp.Found {
			return nil, errNotFound(ctx.PathValue("id"))
		}
		return resp.Item, nil
	})
	srv.Handle("GET /search", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp ItemsResp
		if err := d.search.Call(ctx, "Query", SearchReq{Query: ctx.Query("q"), Limit: 10}, &resp); err != nil {
			return nil, err
		}
		return resp.Items, nil
	})

	srv.Handle("POST /cart", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CartBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		user, err := accounts.Verify(ctx, d.user, req.Token)
		if err != nil {
			return nil, err
		}
		if err := d.cart.Call(ctx, "Add", CartAddReq{Username: user, ItemID: req.ItemID, Quantity: req.Quantity}, nil); err != nil {
			return nil, err
		}
		var resp CartResp
		if err := d.cart.Call(ctx, "Get", CartReq{Username: user}, &resp); err != nil {
			return nil, err
		}
		return resp.Lines, nil
	})
	srv.Handle("GET /cart", func(ctx *rest.Ctx, body []byte) (any, error) {
		user, err := accounts.Verify(ctx, d.user, ctx.Query("token"))
		if err != nil {
			return nil, err
		}
		var resp CartResp
		if err := d.cart.Call(ctx, "Get", CartReq{Username: user}, &resp); err != nil {
			return nil, err
		}
		return resp.Lines, nil
	})

	srv.Handle("POST /wishlist", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req WishBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		user, err := accounts.Verify(ctx, d.user, req.Token)
		if err != nil {
			return nil, err
		}
		return nil, d.wishlist.Call(ctx, "Add", WishlistAddReq{Username: user, ItemID: req.ItemID}, nil)
	})
	srv.Handle("GET /wishlist", func(ctx *rest.Ctx, body []byte) (any, error) {
		user, err := accounts.Verify(ctx, d.user, ctx.Query("token"))
		if err != nil {
			return nil, err
		}
		var resp WishlistResp
		if err := d.wishlist.Call(ctx, "Get", WishlistReq{Username: user}, &resp); err != nil {
			return nil, err
		}
		return resp.ItemIDs, nil
	})

	srv.Handle("POST /orders", rest.Forward[PlaceOrderReq](d.orders, "Place", func(r *PlaceOrderResp) any { return r.Order }))
	srv.Handle("GET /orders/{id}", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp GetOrderResp
		if err := d.orders.Call(ctx, "Get", GetOrderReq{ID: ctx.PathValue("id")}, &resp); err != nil {
			return nil, err
		}
		if !resp.Found {
			return nil, errNotFound(ctx.PathValue("id"))
		}
		return resp.Order, nil
	})
	srv.Handle("GET /shipping", func(ctx *rest.Ctx, body []byte) (any, error) {
		weight := int64(0)
		for _, c := range ctx.Query("weight") {
			if c >= '0' && c <= '9' {
				weight = weight*10 + int64(c-'0')
			}
		}
		var resp ShippingQuoteResp
		if err := d.shipping.Call(ctx, "Quote", ShippingQuoteReq{WeightGram: weight}, &resp); err != nil {
			return nil, err
		}
		return resp.Options, nil
	})
	srv.Handle("GET /recommend", func(ctx *rest.Ctx, body []byte) (any, error) {
		user, err := accounts.Verify(ctx, d.user, ctx.Query("token"))
		if err != nil {
			return nil, err
		}
		var resp ItemsResp
		if err := svcutil.CallBounded(ctx, d.recommender, "Recommend", RecommendItemsReq{Username: user, Limit: 5}, &resp); err != nil {
			return RecommendationsBody{Degraded: true}, nil
		}
		return RecommendationsBody{Items: resp.Items}, nil
	})
}
