package ecommerce

import (
	"sort"

	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// The login half of accountInfo is the shared accounts service.
type (
	RegisterUserReq = accounts.RegisterReq
	LoginReq        = accounts.LoginReq
	LoginResp       = accounts.LoginResp
)

// AccountReq identifies an account.
type AccountReq struct{ Username string }

// BalanceResp returns an account balance.
type BalanceResp struct{ BalanceCents int64 }

// registerAccountInfo installs the login/accountInfo service: the shared
// accounts handlers over the accounts collection, and the balance each
// account carries.
func registerAccountInfo(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	accounts.Register(srv, db, mc, "accounts")
	svcutil.Handle(srv, "Balance", func(ctx *rpc.Ctx, req *AccountReq) (*BalanceResp, error) {
		doc, found, err := db.Get(ctx, "accounts", req.Username)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("accountInfo: no account %q", req.Username)
		}
		return &BalanceResp{BalanceCents: doc.Nums["balance"]}, nil
	})
	// One store-side AddNum: accountInfo is replicated, and a Get, a check and
	// a Put from two replicas would both debit the same opening balance.
	svcutil.Handle(srv, "Debit", func(ctx *rpc.Ctx, req *AuthorizePaymentReq) (*struct{}, error) {
		_, found, ok, err := db.AddNum(ctx, "accounts", req.Username, "balance", -req.AmountCents, 0, false)
		switch {
		case err != nil:
			return nil, err
		case !found:
			return nil, rpc.NotFoundf("accountInfo: no account %q", req.Username)
		case !ok:
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "accountInfo: insufficient funds")
		}
		return nil, nil
	})
}

// RecommendItemsReq asks for items often co-purchased with a user's
// history.
type RecommendItemsReq struct {
	Username string
	Limit    int64
}

// registerRecommender installs the suggested-products engine: a
// co-purchase model computed over committed orders — items that appear in
// orders alongside items the user bought, ranked by co-occurrence count.
func registerRecommender(srv *rpc.Server, orders, catalogue svcutil.Caller) {
	svcutil.Handle(srv, "Recommend", func(ctx *rpc.Ctx, req *RecommendItemsReq) (*ItemsResp, error) {
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 5
		}
		var mine OrdersResp
		if err := orders.Call(ctx, "ByUser", OrdersByUserReq{Username: req.Username}, &mine); err != nil {
			return nil, err
		}
		bought := make(map[string]bool)
		for _, o := range mine.Orders {
			for _, l := range o.Lines {
				bought[l.ItemID] = true
			}
		}
		if len(bought) == 0 {
			return &ItemsResp{}, nil
		}
		// Co-occurrence over the whole catalogue's tag space: recommend
		// items sharing tags with purchases, weighted by overlap.
		var all ItemsResp
		if err := catalogue.Call(ctx, "List", ListItemsReq{Limit: 1000}, &all); err != nil {
			return nil, err
		}
		tagWeight := make(map[string]int)
		for _, it := range all.Items {
			if bought[it.ID] {
				for _, tag := range it.Tags {
					tagWeight[tag]++
				}
			}
		}
		type scored struct {
			item  Item
			score int
		}
		var ranked []scored
		for _, it := range all.Items {
			if bought[it.ID] {
				continue
			}
			score := 0
			for _, tag := range it.Tags {
				score += tagWeight[tag]
			}
			if score > 0 {
				ranked = append(ranked, scored{it, score})
			}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].item.ID < ranked[j].item.ID
		})
		if len(ranked) > limit {
			ranked = ranked[:limit]
		}
		out := make([]Item, len(ranked))
		for i, r := range ranked {
			out[i] = r.item
		}
		return &ItemsResp{Items: out}, nil
	})
}
