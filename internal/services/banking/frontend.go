package banking

import (
	"dsb/internal/rest"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// REST bodies for the node.js-style front-end.

// CredentialsBody enrolls or logs in.
type CredentialsBody struct {
	Username string `json:"username"`
	Password string `json:"password"`
}

// PaymentBody submits a transfer.
type PaymentBody struct {
	Token       string `json:"token"`
	From        string `json:"from"`
	To          string `json:"to"`
	AmountCents int64  `json:"amount_cents"`
	Description string `json:"description"`
}

// LoanBody applies for a loan.
type LoanBody struct {
	Token              string `json:"token"`
	AmountCents        int64  `json:"amount_cents"`
	TermMonths         int64  `json:"term_months"`
	MonthlyDebtCents   int64  `json:"monthly_debt_cents"`
	AnnualRevenueCents int64  `json:"annual_revenue_cents"`
	YearsInBusiness    int64  `json:"years_in_business"`
}

// MortgageBody quotes a mortgage.
type MortgageBody struct {
	Token            string `json:"token"`
	PriceCents       int64  `json:"price_cents"`
	DownCents        int64  `json:"down_cents"`
	TermMonths       int64  `json:"term_months"`
	MonthlyDebtCents int64  `json:"monthly_debt_cents"`
}

// CardActionBody opens/charges/pays a card.
type CardActionBody struct {
	Token       string `json:"token"`
	Number      string `json:"number"`
	AmountCents int64  `json:"amount_cents"`
	FromAccount string `json:"from_account"`
}

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
	srv.Handle("POST /login", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CredentialsBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp LoginResp
		if err := d.auth.Call(ctx, "Login", LoginReq{Username: req.Username, Password: req.Password}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})

	srv.Handle("POST /payments", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req PaymentBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp PaymentResp
		if err := d.payments.Call(ctx, "Pay", PaymentReq{
			Token: req.Token, From: req.From, To: req.To,
			AmountCents: req.AmountCents, Description: req.Description,
		}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})

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

	srv.Handle("POST /loans/personal", func(ctx *rest.Ctx, body []byte) (any, error) {
		return loanHandler(ctx, body, d.personal)
	})
	srv.Handle("POST /loans/business", func(ctx *rest.Ctx, body []byte) (any, error) {
		return loanHandler(ctx, body, d.business)
	})

	srv.Handle("POST /mortgages/quote", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req MortgageBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp MortgageQuoteResp
		if err := d.mortgages.Call(ctx, "Quote", MortgageQuoteReq{
			Token: req.Token, PriceCents: req.PriceCents, DownCents: req.DownCents,
			TermMonths: req.TermMonths, MonthlyDebtCents: req.MonthlyDebtCents,
		}, &resp); err != nil {
			return nil, err
		}
		return resp, nil
	})

	srv.Handle("POST /cards", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CardActionBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp CardResp
		if err := d.cards.Call(ctx, "Open", OpenCardReq{Token: req.Token}, &resp); err != nil {
			return nil, err
		}
		return resp.Card, nil
	})
	srv.Handle("POST /cards/charge", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CardActionBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp CardResp
		if err := d.cards.Call(ctx, "Charge", ChargeCardReq{Token: req.Token, Number: req.Number, AmountCents: req.AmountCents}, &resp); err != nil {
			return nil, err
		}
		return resp.Card, nil
	})
	srv.Handle("POST /cards/pay", func(ctx *rest.Ctx, body []byte) (any, error) {
		var req CardActionBody
		if err := rest.DecodeJSON(body, &req); err != nil {
			return nil, err
		}
		var resp CardResp
		if err := d.cards.Call(ctx, "Pay", PayCardReq{Token: req.Token, Number: req.Number, FromAccount: req.FromAccount, AmountCents: req.AmountCents}, &resp); err != nil {
			return nil, err
		}
		return resp.Card, nil
	})

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

func loanHandler(ctx *rest.Ctx, body []byte, svc svcutil.Caller) (any, error) {
	var req LoanBody
	if err := rest.DecodeJSON(body, &req); err != nil {
		return nil, err
	}
	var resp LoanApplicationResp
	if err := svc.Call(ctx, "Apply", LoanApplicationReq{
		Token: req.Token, AmountCents: req.AmountCents, TermMonths: req.TermMonths,
		MonthlyDebtCents: req.MonthlyDebtCents, AnnualRevenueCents: req.AnnualRevenueCents,
		YearsInBusiness: req.YearsInBusiness,
	}, &resp); err != nil {
		return nil, err
	}
	return resp.Decision, nil
}
