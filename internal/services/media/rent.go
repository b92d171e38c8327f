package media

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// User-service wire types (login mirrors the Social Network's user tier but
// additionally tracks an account balance for rentals).

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

// BalanceReq fetches an account balance.
type BalanceReq struct{ Username string }

// BalanceResp returns the balance.
type BalanceResp struct{ BalanceCents int64 }

// ChargeReq debits an account (payment authentication module).
type ChargeReq struct {
	Username    string
	AmountCents int64
}

// registerUser installs the media login/userInfo service.
func registerUser(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Register", func(ctx *rpc.Ctx, req *RegisterUserReq) (*struct{}, error) {
		if req.Username == "" || req.Password == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "user: username and password required")
		}
		if _, found, err := db.Get(ctx, "users", req.Username); err != nil {
			return nil, err
		} else if found {
			return nil, rpc.Errorf(rpc.CodeConflict, "user: %q taken", req.Username)
		}
		salt := randomHex(8)
		return nil, db.Put(ctx, "users", docstore.Doc{
			ID:     req.Username,
			Fields: map[string]string{"salt": salt, "hash": hashPassword(req.Password, salt)},
			Nums:   map[string]int64{"balance": req.BalanceCents},
		})
	})
	svcutil.Handle(srv, "Login", func(ctx *rpc.Ctx, req *LoginReq) (*LoginResp, error) {
		doc, found, err := db.Get(ctx, "users", req.Username)
		if err != nil {
			return nil, err
		}
		if !found || hashPassword(req.Password, doc.Fields["salt"]) != doc.Fields["hash"] {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "user: bad credentials")
		}
		token := randomHex(16)
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
	svcutil.Handle(srv, "Balance", func(ctx *rpc.Ctx, req *BalanceReq) (*BalanceResp, error) {
		doc, found, err := db.Get(ctx, "users", req.Username)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("user: no user %q", req.Username)
		}
		return &BalanceResp{BalanceCents: doc.Nums["balance"]}, nil
	})
	svcutil.Handle(srv, "Charge", func(ctx *rpc.Ctx, req *ChargeReq) (*BalanceResp, error) {
		if req.AmountCents <= 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "user: charge must be positive")
		}
		doc, found, err := db.Get(ctx, "users", req.Username)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("user: no user %q", req.Username)
		}
		if doc.Nums["balance"] < req.AmountCents {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "user: insufficient funds")
		}
		doc.Nums["balance"] -= req.AmountCents
		if err := db.Put(ctx, "users", doc); err != nil {
			return nil, err
		}
		return &BalanceResp{BalanceCents: doc.Nums["balance"]}, nil
	})
}

func hashPassword(password, salt string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

func randomHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) //nolint:errcheck
	return hex.EncodeToString(b)
}

// RentReq rents a movie for streaming.
type RentReq struct {
	Token   string
	MovieID string
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
		var auth VerifyTokenResp
		if err := user.Call(ctx, "VerifyToken", VerifyTokenReq{Token: req.Token}, &auth); err != nil {
			return nil, err
		}
		if !auth.Valid {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "rent: invalid token")
		}
		if err := user.Call(ctx, "Charge", ChargeReq{Username: auth.Username, AmountCents: rentalPriceCents}, nil); err != nil {
			return nil, err
		}
		r := Rental{
			Username:   auth.Username,
			MovieID:    req.MovieID,
			Token:      randomHex(12),
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
