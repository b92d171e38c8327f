// Package shop is the census fixture's app: a store tier, three logic tiers
// and a front door, wired so that each handler is reached one way only.
package shop

import (
	"context"

	"cgfixture/internal/core"
	"cgfixture/internal/rest"
	"cgfixture/internal/rpc"
	"cgfixture/internal/svcutil"
)

// Shop is a running deployment. Relay is the handle main calls through: a
// struct field the census must follow from the wiring to the call.
type Shop struct {
	Relay svcutil.Caller
}

// AddReq is a cart line, and the JSON body of POST /add.
type AddReq struct {
	Item string
	Op   string
}

// cartDeps holds the cart's downstream in a field.
type cartDeps struct {
	stock svcutil.Caller
}

// New boots the shop.
func New(app *core.App) (*Shop, error) {
	st := &svcutil.Stack{App: app, Prefix: "shop."}
	if err := st.StartStores("db"); err != nil {
		return nil, err
	}
	cl, db := st.Caller, st.DB
	st.Start("stock", func(s *rpc.Server) { registerStock(s, db("stock", "db")) })
	st.Start("cart", func(s *rpc.Server) { registerCart(s, cartDeps{stock: cl("cart", "stock")}) })
	// relay.Count is stock.Count's bytes, relayed, on a tier defined on the
	// App itself, under the Stack's name for it, rather than through the Stack.
	app.Define(st.Name("relay"), func(s *rpc.Server) { svcutil.Relay(s, "Count", cl("relay", "stock"), "Count") })
	if _, err := app.Spawn(st.Name("relay")); err != nil {
		return nil, err
	}
	// The front door's one route forwards to cart.Add.
	if _, err := app.StartREST("shop.front", func(s *rest.Server) {
		s.Handle("POST /add", rest.Forward[AddReq, struct{}](cl("front", "cart"), "Add", nil))
	}); err != nil {
		return nil, err
	}
	relay, err := app.RPC("client", "shop.relay")
	if err != nil {
		return nil, err
	}
	return &Shop{Relay: relay}, nil
}

// registerCart installs cart.Add. It reaches stock.Reserve only through the
// field deps.stock, and stock.Level only through level's parameter; Hold is
// a method stock does not serve, and req.Op is no constant.
func registerCart(srv *rpc.Server, deps cartDeps) {
	svcutil.Handle(srv, "Add", func(ctx *rpc.Ctx, req *AddReq) (*struct{}, error) {
		if err := deps.stock.Call(ctx, "Reserve", req, nil); err != nil {
			return nil, err
		}
		if err := level(ctx, deps.stock); err != nil {
			return nil, err
		}
		if err := deps.stock.Call(ctx, "Hold", req, nil); err != nil {
			return nil, err
		}
		return nil, deps.stock.Call(ctx, req.Op, req, nil)
	})
}

// level asks stock for its level under the degradable budget.
func level(ctx context.Context, stock svcutil.Caller) error {
	return svcutil.CallBounded(ctx, stock, "Level", struct{}{}, nil)
}

// registerStock installs stock's methods. Reserve reaches the store only
// through the typed client's Get; only shop_test.go calls Restock.
func registerStock(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Reserve", func(ctx *rpc.Ctx, req *AddReq) (*struct{}, error) {
		_, _, err := db.Get(ctx, "stock", req.Item)
		return nil, err
	})
	svcutil.Handle(srv, "Level", func(ctx *rpc.Ctx, req *struct{}) (*struct{}, error) { return nil, nil })
	svcutil.Handle(srv, "Count", func(ctx *rpc.Ctx, req *struct{}) (*struct{}, error) { return nil, nil })
	svcutil.Handle(srv, "Restock", func(ctx *rpc.Ctx, req *AddReq) (*struct{}, error) { return nil, nil })
}
