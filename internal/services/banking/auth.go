package banking

import (
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// The authentication service is the shared accounts service.
type (
	LoginReq  = accounts.LoginReq
	LoginResp = accounts.LoginResp
)

// ACLCheckReq asks whether user may act on an account.
type ACLCheckReq struct {
	Username  string
	AccountID string
	Action    string // "debit" | "read"
}

// ACLCheckResp reports the decision.
type ACLCheckResp struct {
	Allowed bool
	Reason  string
}

// registerACL installs the ACL service: debits require ownership of the
// source account; reads require ownership too (no cross-customer
// statements). Mismanaging this dependency is exactly the kind of
// single-edge failure Section 6 of the paper studies.
func registerACL(srv *rpc.Server, posting svcutil.Caller) {
	svcutil.Handle(srv, "Check", func(ctx *rpc.Ctx, req *ACLCheckReq) (*ACLCheckResp, error) {
		var acct AccountResp
		if err := posting.Call(ctx, "Get", AccountReq{ID: req.AccountID}, &acct); err != nil {
			return nil, err
		}
		if !acct.Found {
			return &ACLCheckResp{Allowed: false, Reason: "no such account"}, nil
		}
		if acct.Account.Owner != req.Username {
			return &ACLCheckResp{Allowed: false, Reason: "not the account owner"}, nil
		}
		return &ACLCheckResp{Allowed: true}, nil
	})
}

// PreferencesReq reads or writes user preferences.
type PreferencesReq struct {
	Username string
	Set      map[string]string // nil = read-only
}

// PreferencesResp returns the current preferences.
type PreferencesResp struct{ Prefs map[string]string }

// registerUserPreferences installs the userPreferences service.
func registerUserPreferences(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Access", func(ctx *rpc.Ctx, req *PreferencesReq) (*PreferencesResp, error) {
		if req.Username == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "userPreferences: username required")
		}
		doc, found, err := db.Get(ctx, "preferences", req.Username)
		if err != nil {
			return nil, err
		}
		prefs := map[string]string{}
		if found {
			prefs = doc.Fields
		}
		if req.Set != nil {
			for k, v := range req.Set {
				prefs[k] = v
			}
			if err := db.Put(ctx, "preferences", docstore.Doc{ID: req.Username, Fields: prefs}); err != nil {
				return nil, err
			}
		}
		return &PreferencesResp{Prefs: prefs}, nil
	})
}
