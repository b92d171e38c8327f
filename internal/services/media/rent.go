package media

import (
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// BalanceResp returns an account's balance after a charge.
type BalanceResp struct{ BalanceCents int64 }

// ChargeReq debits an account (payment authentication module).
type ChargeReq struct {
	Username    string
	AmountCents int64
}

// registerUser installs the media login/userInfo service: the shared
// accounts handlers over the users collection, and the balance rentals are
// charged to.
func registerUser(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	accounts.Register(srv, db, mc, "users")
	svcutil.Handle(srv, "Charge", func(ctx *rpc.Ctx, req *ChargeReq) (*BalanceResp, error) {
		if req.AmountCents <= 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "user: charge must be positive")
		}
		// One store-side AddNum, as ecommerce's Debit: two rentals racing on
		// one balance must not both pass the check.
		balance, found, ok, err := db.AddNum(ctx, "users", req.Username, "balance", -req.AmountCents, 0)
		switch {
		case err != nil:
			return nil, err
		case !found:
			return nil, rpc.NotFoundf("user: no user %q", req.Username)
		case !ok:
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "user: insufficient funds")
		}
		return &BalanceResp{BalanceCents: balance}, nil
	})
}

// RentReq rents a movie for streaming. It is also the JSON body of
// POST /rent.
type RentReq struct {
	Token   string `json:"token"`
	MovieID string `json:"movie_id"`
}

// RentResp returns the streaming lease.
type RentResp struct{ Rental Rental }

// ValidateLeaseReq checks a streaming token.
type ValidateLeaseReq struct {
	Token   string
	MovieID string
}

// ValidateLeaseResp reports lease validity.
type ValidateLeaseResp struct{ Valid bool }

const (
	rentalPriceCents = 399
	rentalPeriod     = 48 * time.Hour
)

// registerRent installs the rent service: payment authentication (balance
// check + debit) followed by issuing a time-bounded streaming lease the
// video streaming tier validates per segment.
func registerRent(srv *rpc.Server, user svcutil.Caller, db svcutil.DB) {
	svcutil.Handle(srv, "Rent", func(ctx *rpc.Ctx, req *RentReq) (*RentResp, error) {
		username, err := accounts.Verify(ctx, user, req.Token)
		if err != nil {
			return nil, err
		}
		if err := user.Call(ctx, "Charge", ChargeReq{Username: username, AmountCents: rentalPriceCents}, nil); err != nil {
			return nil, err
		}
		r := Rental{
			Username:   username,
			MovieID:    req.MovieID,
			Token:      accounts.RandomHex(12),
			ExpiresAt:  time.Now().Add(rentalPeriod).UnixNano(),
			PriceCents: rentalPriceCents,
		}
		body, err := codec.Marshal(r)
		if err != nil {
			return nil, err
		}
		if err := db.Put(ctx, "rentals", docstore.Doc{ID: r.Token, Body: body}); err != nil {
			return nil, err
		}
		return &RentResp{Rental: r}, nil
	})
	svcutil.Handle(srv, "ValidateLease", func(ctx *rpc.Ctx, req *ValidateLeaseReq) (*ValidateLeaseResp, error) {
		doc, found, err := db.Get(ctx, "rentals", req.Token)
		if err != nil {
			return nil, err
		}
		if !found {
			return &ValidateLeaseResp{}, nil
		}
		var r Rental
		if err := codec.Unmarshal(doc.Body, &r); err != nil {
			return nil, err
		}
		valid := r.MovieID == req.MovieID && time.Now().UnixNano() < r.ExpiresAt
		return &ValidateLeaseResp{Valid: valid}, nil
	})
}
