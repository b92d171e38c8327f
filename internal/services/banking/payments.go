package banking

import (
	"fmt"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// PaymentReq is an authenticated transfer between accounts. It is also the
// JSON body of POST /payments.
type PaymentReq struct {
	Token       string `json:"token"`
	From        string `json:"from"`
	To          string `json:"to"`
	AmountCents int64  `json:"amount_cents"`
	Description string `json:"description"`
}

// PaymentResp returns the posted transaction.
type PaymentResp struct{ TxnID string }

// paymentsDeps are the tiers the payments orchestrator fans out to.
type paymentsDeps struct {
	auth     svcutil.Caller
	acl      svcutil.Caller
	posting  svcutil.Caller
	activity svcutil.Caller
}

// registerPayments installs the payments orchestrator: authentication →
// ACL → transactionPosting → customerActivity, the critical path Section 7
// identifies as dominating Banking's end-to-end latency.
func registerPayments(srv *rpc.Server, deps paymentsDeps) {
	svcutil.Handle(srv, "Pay", func(ctx *rpc.Ctx, req *PaymentReq) (*PaymentResp, error) {
		username, err := accounts.Verify(ctx, deps.auth, req.Token)
		if err != nil {
			return nil, err
		}
		var acl ACLCheckResp
		if err := deps.acl.Call(ctx, "Check", ACLCheckReq{Username: username, AccountID: req.From, Action: "debit"}, &acl); err != nil {
			return nil, err
		}
		if !acl.Allowed {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "payments: %s", acl.Reason)
		}
		var posted TransferResp
		if err := deps.posting.Call(ctx, "Transfer", TransferReq{
			From: req.From, To: req.To, AmountCents: req.AmountCents, Description: req.Description,
		}, &posted); err != nil {
			return nil, err
		}
		if err := deps.activity.Call(ctx, "Log", LogActivityReq{
			Username: username, Kind: "payment",
			Detail: fmt.Sprintf("%s -> %s: %d (%s)", req.From, req.To, req.AmountCents, posted.TxnID),
		}, nil); err != nil {
			return nil, err
		}
		return &PaymentResp{TxnID: posted.TxnID}, nil
	})
}

// LogActivityReq appends an activity record.
type LogActivityReq struct {
	Username string
	Kind     string
	Detail   string
}

// ActivityListReq lists a customer's activity, newest first.
type ActivityListReq struct {
	Username string
	Limit    int64
}

// ActivityListResp returns activity records.
type ActivityListResp struct{ Activities []Activity }

// registerCustomerActivity installs the customerActivity log service.
func registerCustomerActivity(srv *rpc.Server, db svcutil.DB) {
	var seq atomic.Int64
	svcutil.Handle(srv, "Log", func(ctx *rpc.Ctx, req *LogActivityReq) (*struct{}, error) {
		if req.Username == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "customerActivity: username required")
		}
		a := Activity{Username: req.Username, Kind: req.Kind, Detail: req.Detail, At: time.Now().UnixNano()}
		body, err := codec.Marshal(a)
		if err != nil {
			return nil, err
		}
		doc := docstore.Doc{
			ID:     fmt.Sprintf("act-%d-%d", a.At, seq.Add(1)),
			Fields: map[string]string{"user": a.Username},
			Body:   body,
		}
		return nil, db.Put(ctx, "activity", doc)
	})
	svcutil.Handle(srv, "List", func(ctx *rpc.Ctx, req *ActivityListReq) (*ActivityListResp, error) {
		docs, err := db.Find(ctx, "activity", "user", req.Username, 0)
		if err != nil {
			return nil, err
		}
		out := make([]Activity, 0, len(docs))
		for _, d := range docs {
			var a Activity
			if codec.Unmarshal(d.Body, &a) == nil {
				out = append(out, a)
			}
		}
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		if req.Limit > 0 && int64(len(out)) > req.Limit {
			out = out[:req.Limit]
		}
		return &ActivityListResp{Activities: out}, nil
	})
}
