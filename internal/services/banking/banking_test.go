package banking

import (
	"context"
	"sync"
	"testing"

	"dsb/internal/core"
	"dsb/internal/rpc"
)

func bootBank(t *testing.T) *Banking {
	t.Helper()
	app := core.NewApp("bank-test", core.Options{})
	t.Cleanup(func() { app.Close() })
	b, err := New(app, Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return b
}

func totalBalance(t *testing.T, b *Banking, accountIDs []string) int64 {
	t.Helper()
	ctx := context.Background()
	var total int64
	for _, id := range accountIDs {
		var resp AccountResp
		if err := b.Posting.Call(ctx, "Get", AccountReq{ID: id}, &resp); err != nil || !resp.Found {
			t.Fatalf("account %s: %v", id, err)
		}
		total += resp.Account.BalanceCents
	}
	return total
}

func TestPaymentMovesMoneyAndLogs(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	tokenA, acctA, err := b.Onboard("alice", 60000_00, 1000_00)
	if err != nil {
		t.Fatal(err)
	}
	_, acctB, err := b.Onboard("bob", 50000_00, 500_00)
	if err != nil {
		t.Fatal(err)
	}

	var pay PaymentResp
	if err := b.Payments.Call(ctx, "Pay", PaymentReq{
		Token: tokenA, From: acctA, To: acctB, AmountCents: 250_00, Description: "rent",
	}, &pay); err != nil {
		t.Fatal(err)
	}
	if pay.TxnID == "" {
		t.Fatal("no txn id")
	}
	var a, bb AccountResp
	b.Posting.Call(ctx, "Get", AccountReq{ID: acctA}, &a)  //nolint:errcheck
	b.Posting.Call(ctx, "Get", AccountReq{ID: acctB}, &bb) //nolint:errcheck
	if a.Account.BalanceCents != 750_00 || bb.Account.BalanceCents != 750_00 {
		t.Fatalf("balances = %d, %d", a.Account.BalanceCents, bb.Account.BalanceCents)
	}

	// Ledger has both legs.
	var ledger LedgerResp
	if err := b.Posting.Call(ctx, "Ledger", LedgerReq{AccountID: acctA}, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Entries) != 1 || ledger.Entries[0].DeltaCents != -250_00 {
		t.Fatalf("ledger = %+v", ledger.Entries)
	}
	// Activity logged.
	activity, err := b.App.RPC("test", "bank.customerActivity")
	if err != nil {
		t.Fatal(err)
	}
	var acts ActivityListResp
	if err := activity.Call(ctx, "List", ActivityListReq{Username: "alice"}, &acts); err != nil {
		t.Fatal(err)
	}
	if len(acts.Activities) != 1 || acts.Activities[0].Kind != "payment" {
		t.Fatalf("activity = %+v", acts.Activities)
	}
}

func TestPaymentACLRejectsNonOwner(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	_, acctA, _ := b.Onboard("alice", 60000_00, 1000_00)
	tokenB, acctB, _ := b.Onboard("bob", 50000_00, 500_00)

	// Bob tries to drain Alice's account.
	err := b.Payments.Call(ctx, "Pay", PaymentReq{Token: tokenB, From: acctA, To: acctB, AmountCents: 100_00}, nil)
	if !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("acl bypass: %v", err)
	}
	if got := totalBalance(t, b, []string{acctA}); got != 1000_00 {
		t.Fatalf("alice balance = %d", got)
	}
}

func TestInsufficientFundsAndSelfTransfer(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	token, acct, _ := b.Onboard("alice", 60000_00, 100_00)
	_, acct2, _ := b.Onboard("bob", 50000_00, 0)
	if err := b.Payments.Call(ctx, "Pay", PaymentReq{Token: token, From: acct, To: acct2, AmountCents: 200_00}, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("overdraft: %v", err)
	}
	if err := b.Payments.Call(ctx, "Pay", PaymentReq{Token: token, From: acct, To: acct, AmountCents: 50}, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("self transfer: %v", err)
	}
}

// TestMoneyConservationUnderConcurrency is the system invariant: arbitrary
// concurrent transfers never create or destroy money.
func TestMoneyConservationUnderConcurrency(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	users := []string{"u1", "u2", "u3", "u4"}
	tokens := make([]string, len(users))
	accounts := make([]string, len(users))
	for i, u := range users {
		var err error
		tokens[i], accounts[i], err = b.Onboard(u, 40000_00, 1000_00)
		if err != nil {
			t.Fatal(err)
		}
	}
	before := totalBalance(t, b, accounts)

	var wg sync.WaitGroup
	for i := range users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				to := accounts[(i+1+n)%len(accounts)]
				if to == accounts[i] {
					continue
				}
				// Some of these fail for funds; that's fine — conservation
				// must hold regardless.
				b.Payments.Call(ctx, "Pay", PaymentReq{ //nolint:errcheck
					Token: tokens[i], From: accounts[i], To: to, AmountCents: int64(1 + n%37)},
					nil)
			}
		}(i)
	}
	wg.Wait()
	if after := totalBalance(t, b, accounts); after != before {
		t.Fatalf("money not conserved: before=%d after=%d", before, after)
	}
}

func TestPersonalLendingDecision(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	token, _, _ := b.Onboard("earner", 60000_00, 0) // 5000/mo income
	lend, err := b.App.RPC("test", "bank.personalLending")
	if err != nil {
		t.Fatal(err)
	}
	// Small loan: approved.
	var resp LoanApplicationResp
	if err := lend.Call(ctx, "Apply", LoanApplicationReq{Token: token, AmountCents: 10000_00, TermMonths: 36}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Approved || resp.Decision.MonthlyCents <= 0 {
		t.Fatalf("small loan = %+v", resp.Decision)
	}
	// Monthly payment must amortize to roughly principal*(1+rate/2*term).
	if resp.Decision.MonthlyCents < 10000_00/36 {
		t.Fatalf("payment below interest-free floor: %d", resp.Decision.MonthlyCents)
	}
	// Huge loan with big existing debt: rejected on DTI.
	if err := lend.Call(ctx, "Apply", LoanApplicationReq{Token: token, AmountCents: 100000_00, TermMonths: 36, MonthlyDebtCents: 1500_00}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Decision.Approved {
		t.Fatalf("huge loan approved: %+v", resp.Decision)
	}
}

func TestBusinessLendingRules(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	token, _, _ := b.Onboard("founder", 0, 0)
	lend, err := b.App.RPC("test", "bank.businessLending")
	if err != nil {
		t.Fatal(err)
	}
	var resp LoanApplicationResp
	// Too young a business.
	if err := lend.Call(ctx, "Apply", LoanApplicationReq{Token: token, AmountCents: 50000_00, TermMonths: 60, AnnualRevenueCents: 1000000_00, YearsInBusiness: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Decision.Approved {
		t.Fatal("young business approved")
	}
	// Established with strong revenue: approved.
	if err := lend.Call(ctx, "Apply", LoanApplicationReq{Token: token, AmountCents: 50000_00, TermMonths: 60, AnnualRevenueCents: 1000000_00, YearsInBusiness: 5}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Approved {
		t.Fatalf("strong business rejected: %+v", resp.Decision)
	}
}

func TestMortgageAmortization(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	token, _, _ := b.Onboard("buyer", 180000_00, 0) // 15000/mo
	mort, err := b.App.RPC("test", "bank.mortgages")
	if err != nil {
		t.Fatal(err)
	}
	var resp MortgageQuoteResp
	if err := mort.Call(ctx, "Quote", MortgageQuoteReq{
		Token: token, PriceCents: 400000_00, DownCents: 100000_00, TermMonths: 360,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	d := resp.Decision
	if !d.Approved {
		t.Fatalf("mortgage rejected: %+v", d)
	}
	// 300k at 5.80% (75% LTV, 30y) ≈ $1760/mo.
	if d.MonthlyCents < 1600_00 || d.MonthlyCents > 1900_00 {
		t.Fatalf("monthly = %d", d.MonthlyCents)
	}
	// Amortization: each month principal+interest = payment; interest
	// decreases, principal increases.
	if len(resp.SchedulePrincipal) != 12 {
		t.Fatalf("schedule rows = %d", len(resp.SchedulePrincipal))
	}
	for i := 0; i < 12; i++ {
		if resp.SchedulePrincipal[i]+resp.ScheduleInterest[i] != d.MonthlyCents {
			t.Fatalf("month %d split %d+%d != %d", i, resp.SchedulePrincipal[i], resp.ScheduleInterest[i], d.MonthlyCents)
		}
		if i > 0 && resp.ScheduleInterest[i] > resp.ScheduleInterest[i-1] {
			t.Fatal("interest not decreasing")
		}
	}
	// High LTV pays a higher rate.
	var hi MortgageQuoteResp
	if err := mort.Call(ctx, "Quote", MortgageQuoteReq{Token: token, PriceCents: 400000_00, DownCents: 20000_00, TermMonths: 360}, &hi); err != nil {
		t.Fatal(err)
	}
	if hi.Decision.RateBps <= d.RateBps {
		t.Fatalf("ltv pricing: %d vs %d", hi.Decision.RateBps, d.RateBps)
	}
}

func TestCreditCardLifecycle(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	token, acct, _ := b.Onboard("carduser", 100000_00, 500_00)

	var card CardResp
	if err := b.Cards.Call(ctx, "Open", OpenCardReq{Token: token}, &card); err != nil {
		t.Fatal(err)
	}
	if card.Card.LimitCents != 20000_00 {
		t.Fatalf("limit = %d", card.Card.LimitCents)
	}
	// Charge within limit.
	if err := b.Cards.Call(ctx, "Charge", ChargeCardReq{Token: token, Number: card.Card.Number, AmountCents: 300_00}, &card); err != nil {
		t.Fatal(err)
	}
	if card.Card.BalanceCents != 300_00 {
		t.Fatalf("owed = %d", card.Card.BalanceCents)
	}
	// Over-limit charge rejected.
	if err := b.Cards.Call(ctx, "Charge", ChargeCardReq{Token: token, Number: card.Card.Number, AmountCents: 25000_00}, nil); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("over limit: %v", err)
	}
	// Pay the card from the deposit account; money lands in settlement.
	if err := b.Cards.Call(ctx, "Pay", PayCardReq{Token: token, Number: card.Card.Number, FromAccount: acct, AmountCents: 300_00}, &card); err != nil {
		t.Fatal(err)
	}
	if card.Card.BalanceCents != 0 {
		t.Fatalf("owed after pay = %d", card.Card.BalanceCents)
	}
	var depo AccountResp
	b.Posting.Call(ctx, "Get", AccountReq{ID: acct}, &depo) //nolint:errcheck
	if depo.Account.BalanceCents != 200_00 {
		t.Fatalf("deposit = %d", depo.Account.BalanceCents)
	}
	var settle AccountResp
	b.Posting.Call(ctx, "Get", AccountReq{ID: b.SettlementAccountID}, &settle) //nolint:errcheck
	if settle.Account.BalanceCents != 300_00 {
		t.Fatalf("settlement = %d", settle.Account.BalanceCents)
	}
	// Someone else's token cannot use the card.
	token2, _, _ := b.Onboard("mallory", 100000_00, 0)
	if err := b.Cards.Call(ctx, "Charge", ChargeCardReq{Token: token2, Number: card.Card.Number, AmountCents: 100}, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("cross-user charge: %v", err)
	}
}

func TestWealthAndOffersAndBranches(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	token, _, _ := b.Onboard("investor", 100000_00, 0)

	wealth, err := b.App.RPC("test", "bank.wealthMgmt")
	if err != nil {
		t.Fatal(err)
	}
	var pf PortfolioResp
	if err := wealth.Call(ctx, "Portfolio", PortfolioReq{Token: token, Buy: []Holding{{Symbol: "VTI", Shares: 10}, {Symbol: "BND", Shares: 20}}}, &pf); err != nil {
		t.Fatal(err)
	}
	want := int64(10*26150 + 20*7230)
	if pf.ValueCents != want {
		t.Fatalf("portfolio value = %d, want %d", pf.ValueCents, want)
	}
	if err := wealth.Call(ctx, "Portfolio", PortfolioReq{Token: token, Buy: []Holding{{Symbol: "NOPE", Shares: 1}}}, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("unknown symbol: %v", err)
	}

	var offer OfferResp
	if err := b.Frontend.Do(ctx, "GET", "/offers?segment=retail", nil, &offer); err != nil {
		t.Fatal(err)
	}
	if !offer.Found || offer.Offer.Segment != "retail" {
		t.Fatalf("offer = %+v", offer)
	}
	var branches []Branch
	if err := b.Frontend.Do(ctx, "GET", "/branches?city=ithaca", nil, &branches); err != nil {
		t.Fatal(err)
	}
	if len(branches) != 2 {
		t.Fatalf("branches = %+v", branches)
	}
}

func TestFrontendPaymentFlow(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	_, acctA, _ := b.Onboard("weba", 60000_00, 800_00)
	_, acctB, _ := b.Onboard("webb", 60000_00, 0)

	var login LoginResp
	if err := b.Frontend.Do(ctx, "POST", "/login", LoginReq{Username: "weba", Password: "pw-weba"}, &login); err != nil {
		t.Fatal(err)
	}
	var pay PaymentResp
	if err := b.Frontend.Do(ctx, "POST", "/payments", PaymentReq{
		Token: login.Token, From: acctA, To: acctB, AmountCents: 100_00, Description: "web transfer",
	}, &pay); err != nil {
		t.Fatal(err)
	}
	var accounts []Account
	if err := b.Frontend.Do(ctx, "GET", "/accounts?token="+login.Token, nil, &accounts); err != nil {
		t.Fatal(err)
	}
	if len(accounts) != 1 || accounts[0].BalanceCents != 700_00 {
		t.Fatalf("accounts = %+v", accounts)
	}
	var acts []Activity
	if err := b.Frontend.Do(ctx, "GET", "/activity?token="+login.Token, nil, &acts); err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 {
		t.Fatalf("activity = %+v", acts)
	}
}

func TestMonthlyPaymentMath(t *testing.T) {
	// Zero rate: straight division, rounded up.
	if got := monthlyPayment(1200, 0, 12); got != 100 {
		t.Fatalf("zero-rate = %d", got)
	}
	// Known value: $100k at 6% for 360 months ≈ $599.55.
	got := monthlyPayment(100000_00, 600, 360)
	if got < 599_00 || got > 600_00 {
		t.Fatalf("amortized = %d", got)
	}
	// Degenerate term.
	if got := monthlyPayment(500, 600, 0); got != 500 {
		t.Fatalf("zero-term = %d", got)
	}
}

func TestUserPreferences(t *testing.T) {
	b := bootBank(t)
	ctx := context.Background()
	prefs, err := b.App.RPC("test", "bank.userPreferences")
	if err != nil {
		t.Fatal(err)
	}
	var resp PreferencesResp
	if err := prefs.Call(ctx, "Access", PreferencesReq{Username: "u", Set: map[string]string{"lang": "en", "alerts": "on"}}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Prefs["lang"] != "en" {
		t.Fatalf("prefs = %v", resp.Prefs)
	}
	// Read-only access returns the stored set; partial update merges.
	if err := prefs.Call(ctx, "Access", PreferencesReq{Username: "u", Set: map[string]string{"lang": "de"}}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Prefs["lang"] != "de" || resp.Prefs["alerts"] != "on" {
		t.Fatalf("merged prefs = %v", resp.Prefs)
	}
	if err := prefs.Call(ctx, "Access", PreferencesReq{Username: ""}, nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("empty user: %v", err)
	}
}
