package ecommerce

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// RegisterUserReq creates an account with an opening balance.
type RegisterUserReq struct {
	Username, Password string
	BalanceCents       int64
}

// LoginReq authenticates.
type LoginReq struct{ Username, Password string }

// LoginResp returns a session token.
type LoginResp struct{ Token string }

// VerifyTokenReq validates a token.
type VerifyTokenReq struct{ Token string }

// VerifyTokenResp identifies the session user.
type VerifyTokenResp struct {
	Username string
	Valid    bool
}

// AccountReq identifies an account.
type AccountReq struct{ Username string }

// BalanceResp returns an account balance.
type BalanceResp struct{ BalanceCents int64 }

// registerAccountInfo installs the login/accountInfo service.
func registerAccountInfo(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Register", func(ctx *rpc.Ctx, req *RegisterUserReq) (*struct{}, error) {
		if req.Username == "" || req.Password == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "accountInfo: username and password required")
		}
		if _, found, err := db.Get(ctx, "accounts", req.Username); err != nil {
			return nil, err
		} else if found {
			return nil, rpc.Errorf(rpc.CodeConflict, "accountInfo: %q taken", req.Username)
		}
		salt := ecRandomHex(8)
		return nil, db.Put(ctx, "accounts", docstore.Doc{
			ID:     req.Username,
			Fields: map[string]string{"salt": salt, "hash": ecHashPassword(req.Password, salt)},
			Nums:   map[string]int64{"balance": req.BalanceCents},
		})
	})
	svcutil.Handle(srv, "Login", func(ctx *rpc.Ctx, req *LoginReq) (*LoginResp, error) {
		doc, found, err := db.Get(ctx, "accounts", req.Username)
		if err != nil {
			return nil, err
		}
		if !found || ecHashPassword(req.Password, doc.Fields["salt"]) != doc.Fields["hash"] {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "accountInfo: bad credentials")
		}
		token := ecRandomHex(16)
		if err := mc.Set(ctx, "tok:"+token, []byte(req.Username), time.Hour); err != nil {
			return nil, err
		}
		return &LoginResp{Token: token}, nil
	})
	svcutil.Handle(srv, "VerifyToken", func(ctx *rpc.Ctx, req *VerifyTokenReq) (*VerifyTokenResp, error) {
		v, found, err := mc.Get(ctx, "tok:"+req.Token)
		if err != nil {
			return nil, err
		}
		if !found {
			return &VerifyTokenResp{}, nil
		}
		return &VerifyTokenResp{Username: string(v), Valid: true}, nil
	})
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
		_, found, ok, err := db.AddNum(ctx, "accounts", req.Username, "balance", -req.AmountCents, 0)
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

func ecHashPassword(password, salt string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

func ecRandomHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) //nolint:errcheck
	return hex.EncodeToString(b)
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
