package ecommerce

import (
	"maps"
	"slices"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// CartAddReq adds quantity of an item to a user's cart.
type CartAddReq struct {
	Username string
	ItemID   string
	Quantity int64
}

// CartReq identifies a user's cart.
type CartReq struct{ Username string }

// CartResp returns the cart lines.
type CartResp struct{ Lines []CartLine }

// registerCart installs the cart service (Java tier in Figure 6): a cart is
// a document per user whose numbers are its lines, item ID to quantity, so
// an add is one store-side add that no concurrent one can lose, and the
// first one creates the cart in the same step.
func registerCart(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Add", func(ctx *rpc.Ctx, req *CartAddReq) (*struct{}, error) {
		if req.Username == "" || req.ItemID == "" || req.Quantity <= 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "cart: invalid add")
		}
		_, _, _, err := db.AddNum(ctx, "carts", req.Username, req.ItemID, req.Quantity, 0, true)
		return nil, err
	})

	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *CartReq) (*CartResp, error) {
		doc, _, err := db.Get(ctx, "carts", req.Username)
		if err != nil {
			return nil, err
		}
		var lines []CartLine
		for _, id := range slices.Sorted(maps.Keys(doc.Nums)) {
			if q := doc.Nums[id]; q > 0 {
				lines = append(lines, CartLine{ItemID: id, Quantity: q})
			}
		}
		return &CartResp{Lines: lines}, nil
	})

	svcutil.Handle(srv, "Clear", func(ctx *rpc.Ctx, req *CartReq) (*struct{}, error) {
		return nil, db.Put(ctx, "carts", docstore.Doc{ID: req.Username})
	})
}

// WishlistAddReq adds an item to a user's wishlist.
type WishlistAddReq struct {
	Username string
	ItemID   string
}

// WishlistReq identifies a user's wishlist.
type WishlistReq struct{ Username string }

// WishlistResp returns wishlist item IDs.
type WishlistResp struct{ ItemIDs []string }

// registerWishlist installs the wishlist service (Java tier; the paper
// calls out its near-zero i-cache footprint as typical of trivially simple
// microservices).
func registerWishlist(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Add", func(ctx *rpc.Ctx, req *WishlistAddReq) (*struct{}, error) {
		if req.Username == "" || req.ItemID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "wishlist: invalid add")
		}
		// One store-side prepend, newest first, that skips an item already
		// listed: no read-modify-write for a concurrent add to lose.
		_, err := db.ListPrependUnique(ctx, "wishlists", req.Username, req.ItemID, 0)
		return nil, err
	})
	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *WishlistReq) (*WishlistResp, error) {
		doc, found, err := db.Get(ctx, "wishlists", req.Username)
		if err != nil || !found {
			return &WishlistResp{}, err
		}
		var ids []string
		if err := codec.Unmarshal(doc.Body, &ids); err != nil {
			return nil, err
		}
		return &WishlistResp{ItemIDs: ids}, nil
	})
}
