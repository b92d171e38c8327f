package banking

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// CustomerReq identifies a customer.
type CustomerReq struct{ Username string }

// CustomerResp returns the profile.
type CustomerResp struct {
	Customer Customer
	Found    bool
}

// PutCustomerReq stores a profile.
type PutCustomerReq struct{ Customer Customer }

const customerCacheTTL = 5 * time.Minute

// registerCustomerInfo installs the customerInfo service. Profile lookups —
// the hottest read in the app, on the path of every lending, card, and
// summary request — run through the shared cache-aside ReadPath: cached
// under "cust:<username>" (invalidated by Put), with concurrent misses on
// one customer coalesced into a single backing Get.
func registerCustomerInfo(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Put", func(ctx *rpc.Ctx, req *PutCustomerReq) (*struct{}, error) {
		c := req.Customer
		if c.Username == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "customerInfo: username required")
		}
		body, err := codec.Marshal(c)
		if err != nil {
			return nil, err
		}
		if err := db.Put(ctx, "customers", docstore.Doc{ID: c.Username, Fields: map[string]string{"segment": c.Segment}, Body: body}); err != nil {
			return nil, err
		}
		mc.Delete(ctx, "cust:"+c.Username) //nolint:errcheck
		return nil, nil
	})
	custPath := &svcutil.ReadPath[Customer]{
		MC:  mc,
		TTL: customerCacheTTL,
		Decode: func(b []byte) (Customer, error) {
			var c Customer
			err := codec.Unmarshal(b, &c)
			return c, err
		},
		Fetch: func(ctx context.Context, key string) (Customer, []byte, bool, error) {
			username := strings.TrimPrefix(key, "cust:")
			doc, found, err := db.Get(ctx, "customers", username)
			if err != nil || !found {
				return Customer{}, nil, false, err
			}
			var c Customer
			if err := codec.Unmarshal(doc.Body, &c); err != nil {
				return Customer{}, nil, false, fmt.Errorf("customerInfo: corrupt customer %s: %w", username, err)
			}
			return c, doc.Body, true, nil
		},
	}
	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *CustomerReq) (*CustomerResp, error) {
		c, found, err := custPath.Get(ctx, "cust:"+req.Username)
		if err != nil {
			return nil, err
		}
		return &CustomerResp{Customer: c, Found: found}, nil
	})
}

// OpenAccountReq opens a deposit or investment account.
type OpenAccountReq struct {
	Owner        string
	Kind         string
	InitialCents int64
}

// OpenAccountResp returns the new account.
type OpenAccountResp struct{ Account Account }

// AccountReq identifies an account.
type AccountReq struct{ ID string }

// AccountResp returns the account.
type AccountResp struct {
	Account Account
	Found   bool
}

// AccountsByOwnerReq lists a customer's accounts.
type AccountsByOwnerReq struct{ Owner string }

// AccountsResp returns accounts.
type AccountsResp struct{ Accounts []Account }

// TransferReq moves money between two accounts atomically.
type TransferReq struct {
	From, To    string
	AmountCents int64
	Description string
}

// TransferResp returns the posted transaction ID.
type TransferResp struct{ TxnID string }

// LedgerReq lists an account's ledger entries.
type LedgerReq struct {
	AccountID string
	Limit     int64
}

// LedgerResp returns entries, newest first.
type LedgerResp struct{ Entries []LedgerEntry }

// registerTransactionPosting installs the account/ledger service: it owns
// deposit and investment accounts and is the single writer of balances, so
// transfers serialize through its posting lock — double-entry legs either
// both post or neither does.
func registerTransactionPosting(srv *rpc.Server, db svcutil.DB) {
	var seq atomic.Uint64
	var postMu sync.Mutex // serializes balance mutations (single writer)

	loadAccount := func(ctx *rpc.Ctx, id string) (Account, bool, error) {
		doc, found, err := db.Get(ctx, "accounts", id)
		if err != nil || !found {
			return Account{}, false, err
		}
		var a Account
		if err := codec.Unmarshal(doc.Body, &a); err != nil {
			return Account{}, false, fmt.Errorf("transactionPosting: corrupt account %s: %w", id, err)
		}
		return a, true, nil
	}
	storeAccount := func(ctx *rpc.Ctx, a Account) error {
		body, err := codec.Marshal(a)
		if err != nil {
			return err
		}
		return db.Put(ctx, "accounts", docstore.Doc{ID: a.ID, Fields: map[string]string{"owner": a.Owner, "kind": a.Kind}, Body: body})
	}

	svcutil.Handle(srv, "Open", func(ctx *rpc.Ctx, req *OpenAccountReq) (*OpenAccountResp, error) {
		if req.Owner == "" || (req.Kind != KindDeposit && req.Kind != KindInvestment) {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "transactionPosting: bad open request")
		}
		if req.InitialCents < 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "transactionPosting: negative opening balance")
		}
		postMu.Lock()
		defer postMu.Unlock()
		a := Account{
			ID:           fmt.Sprintf("acct-%s-%06d", req.Kind, seq.Add(1)),
			Owner:        req.Owner,
			Kind:         req.Kind,
			BalanceCents: req.InitialCents,
		}
		if err := storeAccount(ctx, a); err != nil {
			return nil, err
		}
		return &OpenAccountResp{Account: a}, nil
	})

	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *AccountReq) (*AccountResp, error) {
		a, found, err := loadAccount(ctx, req.ID)
		if err != nil {
			return nil, err
		}
		return &AccountResp{Account: a, Found: found}, nil
	})

	svcutil.Handle(srv, "ByOwner", func(ctx *rpc.Ctx, req *AccountsByOwnerReq) (*AccountsResp, error) {
		docs, err := db.Find(ctx, "accounts", "owner", req.Owner, 0)
		if err != nil {
			return nil, err
		}
		out := make([]Account, 0, len(docs))
		for _, d := range docs {
			var a Account
			if codec.Unmarshal(d.Body, &a) == nil {
				out = append(out, a)
			}
		}
		return &AccountsResp{Accounts: out}, nil
	})

	svcutil.Handle(srv, "Transfer", func(ctx *rpc.Ctx, req *TransferReq) (*TransferResp, error) {
		if req.AmountCents <= 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "transactionPosting: non-positive amount")
		}
		if req.From == req.To {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "transactionPosting: self transfer")
		}
		postMu.Lock()
		defer postMu.Unlock()
		from, foundFrom, err := loadAccount(ctx, req.From)
		if err != nil {
			return nil, err
		}
		to, foundTo, err := loadAccount(ctx, req.To)
		if err != nil {
			return nil, err
		}
		if !foundFrom || !foundTo {
			return nil, rpc.NotFoundf("transactionPosting: missing account")
		}
		if from.BalanceCents < req.AmountCents {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "transactionPosting: insufficient funds in %s", req.From)
		}
		txn := fmt.Sprintf("txn-%d-%06d", time.Now().UnixMilli(), seq.Add(1))
		from.BalanceCents -= req.AmountCents
		to.BalanceCents += req.AmountCents
		if err := storeAccount(ctx, from); err != nil {
			return nil, err
		}
		if err := storeAccount(ctx, to); err != nil {
			// Roll the debit back so the invariant holds even on storage
			// failure of the credit leg.
			from.BalanceCents += req.AmountCents
			storeAccount(ctx, from) //nolint:errcheck
			return nil, err
		}
		at := time.Now().UnixNano()
		for i, leg := range []LedgerEntry{
			{TxnID: txn, AccountID: req.From, DeltaCents: -req.AmountCents, PostedAt: at, Description: req.Description},
			{TxnID: txn, AccountID: req.To, DeltaCents: req.AmountCents, PostedAt: at, Description: req.Description},
		} {
			body, err := codec.Marshal(leg)
			if err != nil {
				return nil, err
			}
			doc := docstore.Doc{
				ID:     fmt.Sprintf("%s-%d", txn, i),
				Fields: map[string]string{"account": leg.AccountID},
				Body:   body,
			}
			if err := db.Put(ctx, "ledger", doc); err != nil {
				return nil, err
			}
		}
		return &TransferResp{TxnID: txn}, nil
	})

	svcutil.Handle(srv, "Ledger", func(ctx *rpc.Ctx, req *LedgerReq) (*LedgerResp, error) {
		docs, err := db.Find(ctx, "ledger", "account", req.AccountID, 0)
		if err != nil {
			return nil, err
		}
		out := make([]LedgerEntry, 0, len(docs))
		for _, d := range docs {
			var e LedgerEntry
			if codec.Unmarshal(d.Body, &e) == nil {
				out = append(out, e)
			}
		}
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		if req.Limit > 0 && int64(len(out)) > req.Limit {
			out = out[:req.Limit]
		}
		return &LedgerResp{Entries: out}, nil
	})
}
