package banking

import (
	"context"
	"fmt"
	"time"

	"dsb/internal/core"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// SettlementAccount receives credit-card payments; it is opened at boot.
const settlementOwner = "__bank__"

// Config sizes the deployment.
type Config struct {
	// LayoutConfig shards and replicates the store and cache tiers and
	// carries the inter-tier middleware.
	svcutil.LayoutConfig
}

// replicable names the logic tiers safe to run multi-instance: their state
// lives in the db/mc tiers or is static. transactionPosting stays
// single-instance (it is the single writer of balances and derives account
// and txn IDs from a per-process sequence), as do customerActivity and
// creditCard (per-process ID sequences).
var replicable = map[string]bool{
	"customerInfo": true, "authentication": true, "acl": true,
	"payments": true, "personalLending": true, "businessLending": true,
	"mortgages": true, "wealthMgmt": true, "offerBanners": true,
	"bankInfo": true, "userPreferences": true,
}

// Banking is a running Banking System deployment.
type Banking struct {
	App      *core.App
	Frontend *rest.Client

	Auth     svcutil.Caller
	Customer svcutil.Caller
	Posting  svcutil.Caller
	Payments svcutil.Caller
	Cards    svcutil.Caller

	// SettlementAccountID is the bank-owned account card payments land in.
	SettlementAccountID string
}

// New boots the Banking System.
func New(app *core.App, cfg Config) (*Banking, error) {
	stack := cfg.Stack(app, "bank.", replicable)
	if err := stack.StartStores("db-customers", "db-accounts", "db-credentials", "db-activity", "db-cards", "db-portfolios", "db-preferences"); err != nil {
		return nil, err
	}
	if err := stack.StartCaches("mc-customers", "mc-sessions"); err != nil {
		return nil, err
	}
	infoDB, err := newBankInfoDB()
	if err != nil {
		return nil, err
	}

	cl, db, mc, start := stack.Caller, stack.DB, stack.KV, stack.Start

	start("customerInfo", func(s *rpc.Server) {
		registerCustomerInfo(s, db("customerInfo", "db-customers"), mc("customerInfo", "mc-customers"))
	})
	start("authentication", func(s *rpc.Server) {
		accounts.Register(s, db("authentication", "db-credentials"), mc("authentication", "mc-sessions"), "credentials")
	})
	start("transactionPosting", func(s *rpc.Server) {
		registerTransactionPosting(s, db("transactionPosting", "db-accounts"))
	})
	start("acl", func(s *rpc.Server) {
		registerACL(s, cl("acl", "transactionPosting"))
	})
	start("customerActivity", func(s *rpc.Server) {
		registerCustomerActivity(s, db("customerActivity", "db-activity"))
	})
	start("payments", func(s *rpc.Server) {
		registerPayments(s, paymentsDeps{
			auth:     cl("payments", "authentication"),
			acl:      cl("payments", "acl"),
			posting:  cl("payments", "transactionPosting"),
			activity: cl("payments", "customerActivity"),
		})
	})
	start("personalLending", func(s *rpc.Server) {
		registerPersonalLending(s, cl("personalLending", "authentication"), cl("personalLending", "customerInfo"))
	})
	start("businessLending", func(s *rpc.Server) {
		registerBusinessLending(s, cl("businessLending", "authentication"))
	})
	start("mortgages", func(s *rpc.Server) {
		registerMortgages(s, cl("mortgages", "authentication"), cl("mortgages", "customerInfo"))
	})
	start("wealthMgmt", func(s *rpc.Server) {
		registerWealthMgmt(s, cl("wealthMgmt", "authentication"), db("wealthMgmt", "db-portfolios"))
	})
	start("offerBanners", func(s *rpc.Server) { registerOfferBanners(s, nil) })
	start("bankInfo", func(s *rpc.Server) { registerBankInfo(s, infoDB) })
	start("userPreferences", func(s *rpc.Server) {
		registerUserPreferences(s, db("userPreferences", "db-preferences"))
	})
	if err := stack.Boot(); err != nil {
		return nil, fmt.Errorf("banking: boot: %w", err)
	}

	b := &Banking{App: app}

	// Open the settlement account before the card service needs it.
	posting, err := app.RPC("boot", "bank.transactionPosting")
	if err != nil {
		return nil, err
	}
	var settle OpenAccountResp
	if err := posting.Call(context.Background(), "Open", OpenAccountReq{Owner: settlementOwner, Kind: KindDeposit}, &settle); err != nil {
		return nil, err
	}
	b.SettlementAccountID = settle.Account.ID

	start("creditCard", func(s *rpc.Server) {
		registerCreditCard(s,
			cl("creditCard", "authentication"),
			cl("creditCard", "customerInfo"),
			cl("creditCard", "transactionPosting"),
			cl("creditCard", "acl"),
			db("creditCard", "db-cards"),
			b.SettlementAccountID)
	})
	if err := stack.Boot(); err != nil {
		return nil, fmt.Errorf("banking: boot creditCard: %w", err)
	}

	if _, err := app.StartREST("bank.frontend", func(s *rest.Server) {
		registerFrontend(s, bankFrontendDeps{
			auth:      cl("frontend", "authentication"),
			posting:   cl("frontend", "transactionPosting"),
			payments:  cl("frontend", "payments"),
			personal:  cl("frontend", "personalLending"),
			business:  cl("frontend", "businessLending"),
			mortgages: cl("frontend", "mortgages"),
			cards:     cl("frontend", "creditCard"),
			wealth:    cl("frontend", "wealthMgmt"),
			offers:    cl("frontend", "offerBanners"),
			info:      cl("frontend", "bankInfo"),
			activity:  cl("frontend", "customerActivity"),
		})
	}); err != nil {
		return nil, err
	}

	if b.Frontend, err = app.REST("client", "bank.frontend"); err != nil {
		return nil, err
	}
	if b.Auth, err = app.RPC("client", "bank.authentication"); err != nil {
		return nil, err
	}
	if b.Customer, err = app.RPC("client", "bank.customerInfo"); err != nil {
		return nil, err
	}
	if b.Posting, err = app.RPC("client", "bank.transactionPosting"); err != nil {
		return nil, err
	}
	if b.Payments, err = app.RPC("client", "bank.payments"); err != nil {
		return nil, err
	}
	if b.Cards, err = app.RPC("client", "bank.creditCard"); err != nil {
		return nil, err
	}
	return b, nil
}

// Onboard enrolls a customer with credentials, profile, and a deposit
// account, returning (token, accountID).
func (b *Banking) Onboard(username string, incomeCents, openingCents int64) (string, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Auth.Call(ctx, "Register", accounts.RegisterReq{Username: username, Password: "pw-" + username}, nil); err != nil {
		return "", "", err
	}
	if err := b.Customer.Call(ctx, "Put", PutCustomerReq{Customer: Customer{
		Username: username, FullName: username, AnnualIncomeCents: incomeCents, Segment: "retail",
	}}, nil); err != nil {
		return "", "", err
	}
	var login LoginResp
	if err := b.Auth.Call(ctx, "Login", LoginReq{Username: username, Password: "pw-" + username}, &login); err != nil {
		return "", "", err
	}
	var acct OpenAccountResp
	if err := b.Posting.Call(ctx, "Open", OpenAccountReq{Owner: username, Kind: KindDeposit, InitialCents: openingCents}, &acct); err != nil {
		return "", "", err
	}
	return login.Token, acct.Account.ID, nil
}
