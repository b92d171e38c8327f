package banking

import (
	"fmt"
	"math"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// LoanApplicationReq applies for a personal or business loan. It is also
// the JSON body of POST /loans/personal and POST /loans/business.
type LoanApplicationReq struct {
	Token            string `json:"token"`
	AmountCents      int64  `json:"amount_cents"`
	TermMonths       int64  `json:"term_months"`
	MonthlyDebtCents int64  `json:"monthly_debt_cents"` // existing obligations
	// Business loans only:
	AnnualRevenueCents int64 `json:"annual_revenue_cents"`
	YearsInBusiness    int64 `json:"years_in_business"`
}

// LoanApplicationResp returns the decision.
type LoanApplicationResp struct{ Decision LoanDecision }

// monthlyPayment computes the standard amortized monthly payment for
// principal at annual rate rateBps over termMonths.
func monthlyPayment(principalCents, rateBps, termMonths int64) int64 {
	if termMonths <= 0 {
		return principalCents
	}
	r := float64(rateBps) / 10000 / 12
	p := float64(principalCents)
	if r == 0 {
		return int64(math.Ceil(p / float64(termMonths)))
	}
	factor := math.Pow(1+r, float64(termMonths))
	return int64(math.Ceil(p * r * factor / (factor - 1)))
}

// underwrite applies the debt-to-income rule shared by the lending tiers:
// approve when (existing debt + new payment) stays under the cap fraction
// of monthly income.
func underwrite(monthlyIncomeCents, monthlyDebtCents, paymentCents int64, capPct int64) (bool, string) {
	if monthlyIncomeCents <= 0 {
		return false, "no verifiable income"
	}
	load := (monthlyDebtCents + paymentCents) * 100 / monthlyIncomeCents
	if load > capPct {
		return false, fmt.Sprintf("debt-to-income %d%% exceeds %d%% cap", load, capPct)
	}
	return true, ""
}

// registerPersonalLending installs the personalLending service: rate by
// term, amortized payment, 40% DTI cap against customerInfo income.
func registerPersonalLending(srv *rpc.Server, auth, customer svcutil.Caller) {
	svcutil.Handle(srv, "Apply", func(ctx *rpc.Ctx, req *LoanApplicationReq) (*LoanApplicationResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		if req.AmountCents <= 0 || req.TermMonths <= 0 || req.TermMonths > 84 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "personalLending: bad amount/term")
		}
		var cust CustomerResp
		if err := customer.Call(ctx, "Get", CustomerReq{Username: username}, &cust); err != nil {
			return nil, err
		}
		if !cust.Found {
			return nil, rpc.NotFoundf("personalLending: no customer %q", username)
		}
		rateBps := int64(799)
		if req.TermMonths > 36 {
			rateBps = 999
		}
		payment := monthlyPayment(req.AmountCents, rateBps, req.TermMonths)
		ok, reason := underwrite(cust.Customer.AnnualIncomeCents/12, req.MonthlyDebtCents, payment, 40)
		d := LoanDecision{Approved: ok, Reason: reason, AmountCents: req.AmountCents, RateBps: rateBps, TermMonths: req.TermMonths, MonthlyCents: payment}
		return &LoanApplicationResp{Decision: d}, nil
	})
}

// registerBusinessLending installs the businessLending service: revenue
// coverage plus operating-history requirements.
func registerBusinessLending(srv *rpc.Server, auth svcutil.Caller) {
	svcutil.Handle(srv, "Apply", func(ctx *rpc.Ctx, req *LoanApplicationReq) (*LoanApplicationResp, error) {
		if _, err := accounts.Verify(ctx, auth, req.Token); err != nil {
			return nil, err
		}
		if req.AmountCents <= 0 || req.TermMonths <= 0 || req.TermMonths > 120 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "businessLending: bad amount/term")
		}
		rateBps := int64(650)
		payment := monthlyPayment(req.AmountCents, rateBps, req.TermMonths)
		d := LoanDecision{AmountCents: req.AmountCents, RateBps: rateBps, TermMonths: req.TermMonths, MonthlyCents: payment}
		switch {
		case req.YearsInBusiness < 2:
			d.Reason = "less than two years in business"
		case payment*12 > req.AnnualRevenueCents/4:
			d.Reason = "annual debt service exceeds 25% of revenue"
		default:
			d.Approved = true
		}
		return &LoanApplicationResp{Decision: d}, nil
	})
}

// MortgageQuoteReq quotes a mortgage. It is also the JSON body of
// POST /mortgages/quote.
type MortgageQuoteReq struct {
	Token            string `json:"token"`
	PriceCents       int64  `json:"price_cents"`
	DownCents        int64  `json:"down_cents"`
	TermMonths       int64  `json:"term_months"`
	MonthlyDebtCents int64  `json:"monthly_debt_cents"`
}

// MortgageQuoteResp returns the decision and the first amortization rows.
type MortgageQuoteResp struct {
	Decision LoanDecision
	// Schedule holds the first 12 months: principal and interest split.
	SchedulePrincipal []int64
	ScheduleInterest  []int64
}

// registerMortgages installs the mortgages service: LTV-priced rate,
// amortization schedule computation, and a 35% DTI cap.
func registerMortgages(srv *rpc.Server, auth, customer svcutil.Caller) {
	svcutil.Handle(srv, "Quote", func(ctx *rpc.Ctx, req *MortgageQuoteReq) (*MortgageQuoteResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		if req.PriceCents <= 0 || req.DownCents < 0 || req.DownCents >= req.PriceCents {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "mortgages: bad price/down payment")
		}
		if req.TermMonths != 180 && req.TermMonths != 360 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "mortgages: term must be 180 or 360 months")
		}
		principal := req.PriceCents - req.DownCents
		ltv := principal * 100 / req.PriceCents
		rateBps := int64(580)
		if ltv > 80 {
			rateBps += 45 // PMI-equivalent pricing
		}
		if req.TermMonths == 180 {
			rateBps -= 50
		}
		payment := monthlyPayment(principal, rateBps, req.TermMonths)

		var cust CustomerResp
		if err := customer.Call(ctx, "Get", CustomerReq{Username: username}, &cust); err != nil {
			return nil, err
		}
		if !cust.Found {
			return nil, rpc.NotFoundf("mortgages: no customer %q", username)
		}
		ok, reason := underwrite(cust.Customer.AnnualIncomeCents/12, req.MonthlyDebtCents, payment, 35)

		resp := &MortgageQuoteResp{Decision: LoanDecision{
			Approved: ok, Reason: reason, AmountCents: principal,
			RateBps: rateBps, TermMonths: req.TermMonths, MonthlyCents: payment,
		}}
		// First year's amortization split.
		r := float64(rateBps) / 10000 / 12
		balance := float64(principal)
		for m := 0; m < 12 && m < int(req.TermMonths); m++ {
			interest := int64(math.Round(balance * r))
			princ := payment - interest
			resp.ScheduleInterest = append(resp.ScheduleInterest, interest)
			resp.SchedulePrincipal = append(resp.SchedulePrincipal, princ)
			balance -= float64(princ)
		}
		return resp, nil
	})
}

// OpenCardReq opens a credit card.
type OpenCardReq struct {
	Token string `json:"token"`
}

// CardResp returns a card.
type CardResp struct {
	Card  Card
	Found bool
}

// ChargeCardReq charges a purchase to a card.
type ChargeCardReq struct {
	Token       string `json:"token"`
	Number      string `json:"number"`
	AmountCents int64  `json:"amount_cents"`
}

// PayCardReq pays a card balance from a deposit account.
type PayCardReq struct {
	Token       string `json:"token"`
	Number      string `json:"number"`
	FromAccount string `json:"from_account"`
	AmountCents int64  `json:"amount_cents"`
}

// registerCreditCard installs creditCard and openCreditCard behaviour:
// limit scaled from income, charges bounded by the limit, and payments
// that move real money through transactionPosting into the bank's
// settlement account.
func registerCreditCard(srv *rpc.Server, auth, customer, posting, acl svcutil.Caller, db svcutil.DB, settlementAccount string) {
	var seq atomic.Uint64
	loadCard := func(ctx *rpc.Ctx, number string) (Card, bool, error) {
		doc, found, err := db.Get(ctx, "cards", number)
		if err != nil || !found {
			return Card{}, false, err
		}
		var c Card
		if err := codec.Unmarshal(doc.Body, &c); err != nil {
			return Card{}, false, err
		}
		return c, true, nil
	}
	storeCard := func(ctx *rpc.Ctx, c Card) error {
		body, err := codec.Marshal(c)
		if err != nil {
			return err
		}
		return db.Put(ctx, "cards", docstore.Doc{ID: c.Number, Fields: map[string]string{"owner": c.Owner}, Body: body})
	}

	svcutil.Handle(srv, "Open", func(ctx *rpc.Ctx, req *OpenCardReq) (*CardResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		var cust CustomerResp
		if err := customer.Call(ctx, "Get", CustomerReq{Username: username}, &cust); err != nil {
			return nil, err
		}
		if !cust.Found {
			return nil, rpc.NotFoundf("creditCard: no customer %q", username)
		}
		limit := cust.Customer.AnnualIncomeCents / 5
		if limit < 50000 {
			limit = 50000
		}
		c := Card{Number: fmt.Sprintf("4000-%010d", seq.Add(1)), Owner: username, LimitCents: limit}
		if err := storeCard(ctx, c); err != nil {
			return nil, err
		}
		return &CardResp{Card: c, Found: true}, nil
	})

	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *ChargeCardReq) (*CardResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		c, found, err := loadCard(ctx, req.Number)
		if err != nil {
			return nil, err
		}
		if found && c.Owner != username {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "creditCard: not your card")
		}
		return &CardResp{Card: c, Found: found}, nil
	})

	svcutil.Handle(srv, "Charge", func(ctx *rpc.Ctx, req *ChargeCardReq) (*CardResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		if req.AmountCents <= 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "creditCard: non-positive charge")
		}
		c, found, err := loadCard(ctx, req.Number)
		if err != nil {
			return nil, err
		}
		if !found || c.Owner != username {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "creditCard: not your card")
		}
		if c.BalanceCents+req.AmountCents > c.LimitCents {
			return nil, rpc.Errorf(rpc.CodeConflict, "creditCard: over limit")
		}
		c.BalanceCents += req.AmountCents
		if err := storeCard(ctx, c); err != nil {
			return nil, err
		}
		return &CardResp{Card: c, Found: true}, nil
	})

	svcutil.Handle(srv, "Pay", func(ctx *rpc.Ctx, req *PayCardReq) (*CardResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		c, found, err := loadCard(ctx, req.Number)
		if err != nil {
			return nil, err
		}
		if !found || c.Owner != username {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "creditCard: not your card")
		}
		if req.AmountCents <= 0 || req.AmountCents > c.BalanceCents {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "creditCard: bad payment amount")
		}
		var aclResp ACLCheckResp
		if err := acl.Call(ctx, "Check", ACLCheckReq{Username: username, AccountID: req.FromAccount, Action: "debit"}, &aclResp); err != nil {
			return nil, err
		}
		if !aclResp.Allowed {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "creditCard: %s", aclResp.Reason)
		}
		if err := posting.Call(ctx, "Transfer", TransferReq{
			From: req.FromAccount, To: settlementAccount,
			AmountCents: req.AmountCents, Description: "card payment " + c.Number,
		}, nil); err != nil {
			return nil, err
		}
		c.BalanceCents -= req.AmountCents
		if err := storeCard(ctx, c); err != nil {
			return nil, err
		}
		return &CardResp{Card: c, Found: true}, nil
	})
}
