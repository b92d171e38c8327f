// Package accounts is the login tier four of the suite's applications share:
// Social Network's login/userInfo, E-commerce's login/accountInfo, Media's
// user service and Banking's authentication each register these handlers on
// their own tier, over their own credentials collection and session cache,
// and their front doors install its POST /login (and, but for Banking's,
// POST /register) routes. Passwords are stored as salted SHA-256 hashes; a
// session is a random token the cache tier holds for tokenTTL.
package accounts

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"time"

	"dsb/internal/docstore"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// RegisterReq creates an account, with an opening balance for the apps that
// keep one next to the credentials.
type RegisterReq struct {
	Username, Password string
	BalanceCents       int64
}

// LoginReq authenticates. It is also the JSON body of the front doors'
// POST /login and POST /register.
type LoginReq struct {
	Username string `json:"username"`
	Password string `json:"password"`
}

// LoginResp returns a session token.
type LoginResp struct{ Token string }

// VerifyTokenReq validates a session token.
type VerifyTokenReq struct{ Token string }

// VerifyTokenResp identifies the session user.
type VerifyTokenResp struct {
	Username string
	Valid    bool
}

const tokenTTL = time.Hour

// Register installs Register, Login and VerifyToken on srv. Credentials
// live in db's collection, one document per username; sessions in mc under
// "tok:" keys. An app's own methods on the same tier (profile counters,
// balances) read and write the same documents.
func Register(srv *rpc.Server, db svcutil.DB, mc svcutil.KV, collection string) {
	svcutil.Handle(srv, "Register", func(ctx *rpc.Ctx, req *RegisterReq) (*struct{}, error) {
		if req.Username == "" || req.Password == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "accounts: username and password required")
		}
		if _, found, err := db.Get(ctx, collection, req.Username); err != nil {
			return nil, err
		} else if found {
			return nil, rpc.Errorf(rpc.CodeConflict, "accounts: %q taken", req.Username)
		}
		salt := RandomHex(8)
		doc := docstore.Doc{
			ID:     req.Username,
			Fields: map[string]string{"salt": salt, "hash": hashPassword(req.Password, salt)},
		}
		if req.BalanceCents != 0 {
			doc.Nums = map[string]int64{"balance": req.BalanceCents}
		}
		return nil, db.Put(ctx, collection, doc)
	})
	svcutil.Handle(srv, "Login", func(ctx *rpc.Ctx, req *LoginReq) (*LoginResp, error) {
		doc, found, err := db.Get(ctx, collection, req.Username)
		if err != nil {
			return nil, err
		}
		if !found || hashPassword(req.Password, doc.Fields["salt"]) != doc.Fields["hash"] {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "accounts: bad credentials")
		}
		token := RandomHex(16)
		if err := mc.Set(ctx, "tok:"+token, []byte(req.Username), tokenTTL); err != nil {
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
}

// HandleLogin installs POST /login on a front door: the JSON credentials go
// to the login tier behind login, and the session token comes back.
func HandleLogin(srv *rest.Server, login svcutil.Caller) {
	srv.Handle("POST /login", rest.Forward[LoginReq, LoginResp](login, "Login", nil))
}

// HandleRegister installs POST /register on a front door: the same JSON
// credentials, registered with the app's opening balance, which is the
// server's to set and never the client's.
func HandleRegister(srv *rest.Server, login svcutil.Caller, openingCents int64) {
	srv.Handle("POST /register", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req LoginReq
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		return nil, login.Call(ctx, "Register", RegisterReq{Username: req.Username, Password: req.Password, BalanceCents: openingCents}, nil)
	})
}

// Verify asks the login tier behind caller whose session token is, and
// returns the username, or a CodeUnauthorized error for a token it does not
// hold.
func Verify(ctx context.Context, caller svcutil.Caller, token string) (string, error) {
	var resp VerifyTokenResp
	if err := caller.Call(ctx, "VerifyToken", VerifyTokenReq{Token: token}, &resp); err != nil {
		return "", err
	}
	if !resp.Valid {
		return "", rpc.Errorf(rpc.CodeUnauthorized, "invalid token")
	}
	return resp.Username, nil
}

func hashPassword(password, salt string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

// RandomHex returns n random bytes, hex-encoded: the suite's unguessable
// identifiers (session tokens here, media's rental leases).
func RandomHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) //nolint:errcheck // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b)
}
