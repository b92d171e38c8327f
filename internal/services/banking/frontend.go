package banking

import (
	"dsb/internal/rest"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// The front door's POST bodies are the RPC requests they become: each
// carries the session token, and the tier behind verifies it.

type bankFrontendDeps struct {
	auth      svcutil.Caller
	posting   svcutil.Caller
	payments  svcutil.Caller
	personal  svcutil.Caller
	business  svcutil.Caller
	mortgages svcutil.Caller
	cards     svcutil.Caller
	wealth    svcutil.Caller
	offers    svcutil.Caller
	info      svcutil.Caller
	activity  svcutil.Caller
}

// SummaryBody is the GET /summary response: the customer's accounts and
// total balance (critical), plus the wealth-management portfolio value.
// Degraded marks a summary served without the portfolio because the
// wealthMgmt tier was unreachable — the non-critical hop the front door
// sacrifices rather than failing the whole page.
type SummaryBody struct {
	Accounts     []Account `json:"accounts"`
	BalanceCents int64     `json:"balance_cents"`
	WealthCents  int64     `json:"wealth_cents"`
	Holdings     []Holding `json:"holdings,omitempty"`
	Degraded     bool      `json:"degraded,omitempty"`
}

// registerFrontend installs the Banking REST front door. The
// wealth-management hop of GET /summary is non-critical: a failure there
// omits the portfolio and marks the response Degraded instead of erroring.
func registerFrontend(srv *rest.Server, d bankFrontendDeps) {
	accounts.HandleLogin(srv, d.auth)

	srv.Handle("POST /payments", rest.Forward[PaymentReq, PaymentResp](d.payments, "Pay", nil))

	srv.Handle("GET /accounts", func(ctx *rest.Ctx, body []byte) (any, error) {
		username, err := accounts.Verify(ctx, d.auth, ctx.Query("token"))
		if err != nil {
			return nil, err
		}
		var resp AccountsResp
		if err := d.posting.Call(ctx, "ByOwner", AccountsByOwnerReq{Owner: username}, &resp); err != nil {
			return nil, err
		}
		return resp.Accounts, nil
	})

	srv.Handle("GET /summary", func(ctx *rest.Ctx, body []byte) (any, error) {
		token := ctx.Query("token")
		username, err := accounts.Verify(ctx, d.auth, token)
		if err != nil {
			return nil, err
		}
		var owned AccountsResp
		if err := d.posting.Call(ctx, "ByOwner", AccountsByOwnerReq{Owner: username}, &owned); err != nil {
			return nil, err
		}
		out := SummaryBody{Accounts: owned.Accounts}
		for _, a := range owned.Accounts {
			out.BalanceCents += a.BalanceCents
		}
		var portfolio PortfolioResp
		if err := svcutil.CallBounded(ctx, d.wealth, "Portfolio", PortfolioReq{Token: token}, &portfolio); err != nil {
			out.Degraded = true
			return out, nil
		}
		out.WealthCents = portfolio.ValueCents
		out.Holdings = portfolio.Holdings
		return out, nil
	})

	decision := func(r *LoanApplicationResp) any { return r.Decision }
	srv.Handle("POST /loans/personal", rest.Forward[LoanApplicationReq](d.personal, "Apply", decision))
	srv.Handle("POST /loans/business", rest.Forward[LoanApplicationReq](d.business, "Apply", decision))

	srv.Handle("POST /mortgages/quote", rest.Forward[MortgageQuoteReq, MortgageQuoteResp](d.mortgages, "Quote", nil))

	card := func(r *CardResp) any { return r.Card }
	srv.Handle("POST /cards", rest.Forward[OpenCardReq](d.cards, "Open", card))
	srv.Handle("POST /cards/charge", rest.Forward[ChargeCardReq](d.cards, "Charge", card))
	srv.Handle("POST /cards/pay", rest.Forward[PayCardReq](d.cards, "Pay", card))

	srv.Handle("GET /offers", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp OfferResp
		if err := d.offers.Call(ctx, "For", OfferReq{Segment: ctx.Query("segment")}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})
	srv.Handle("GET /branches", func(ctx *rest.Ctx, body []byte) (any, error) {
		var resp BranchResp
		if err := d.info.Call(ctx, "Branches", BranchReq{City: ctx.Query("city")}, &resp); err != nil {
			return nil, err
		}
		return resp.Branches, nil
	})
	srv.Handle("GET /activity", func(ctx *rest.Ctx, body []byte) (any, error) {
		username, err := accounts.Verify(ctx, d.auth, ctx.Query("token"))
		if err != nil {
			return nil, err
		}
		var resp ActivityListResp
		if err := d.activity.Call(ctx, "List", ActivityListReq{Username: username, Limit: 20}, &resp); err != nil {
			return nil, err
		}
		return resp.Activities, nil
	})
}
