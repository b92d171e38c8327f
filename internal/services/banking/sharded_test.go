package banking

import (
	"context"
	"testing"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/rpc"
	"dsb/internal/shard"
)

// bootShardedBank boots Banking with every docstore/kv tier running
// shards×replicas instances behind consistent-hash routing.
func bootShardedBank(t *testing.T, app *core.App, shards, replicas int) *Banking {
	t.Helper()
	b, err := New(app, Config{Shards: shards, ShardReplicas: replicas})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return b
}

// TestShardedEndToEnd runs the payment flow — onboard, transfer, ledger —
// on a 3-shard×2-replica storage layout.
func TestShardedEndToEnd(t *testing.T) {
	app := core.NewApp("bank-sharded", core.Options{})
	t.Cleanup(func() { app.Close() })
	b := bootShardedBank(t, app, 3, 2)
	ctx := context.Background()

	instances := b.App.Registry.Instances("bank.db-accounts")
	if len(instances) != 6 {
		t.Fatalf("db-accounts has %d instances, want 6", len(instances))
	}
	labels := make(map[string]int)
	for _, inst := range instances {
		labels[inst.Meta[shard.MetaShard]]++
	}
	if len(labels) != 3 {
		t.Fatalf("db-accounts shard labels = %v, want 3 distinct", labels)
	}

	tokenA, acctA, err := b.Onboard("alice", 9_000_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	_, acctB, err := b.Onboard("bob", 7_000_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var paid PaymentResp
	if err := b.Payments.Call(ctx, "Pay", PaymentReq{
		Token: tokenA, From: acctA, To: acctB, AmountCents: 25_000, Description: "rent",
	}, &paid); err != nil {
		t.Fatal(err)
	}
	var acct AccountResp
	if err := b.Posting.Call(ctx, "Get", AccountReq{ID: acctB}, &acct); err != nil {
		t.Fatal(err)
	}
	if acct.Account.BalanceCents != 75_000 {
		t.Fatalf("bob balance = %d, want 75000", acct.Account.BalanceCents)
	}
	var ledger LedgerResp
	if err := b.Posting.Call(ctx, "Ledger", LedgerReq{AccountID: acctA}, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Entries) != 1 || ledger.Entries[0].TxnID != paid.TxnID {
		t.Fatalf("ledger = %+v, want one entry for %s", ledger.Entries, paid.TxnID)
	}
}

// TestShardedSurvivesReplicaFault errors the first replica of each
// db-customers shard: with two replicas per shard, profile reads fall over
// to the healthy sibling.
func TestShardedSurvivesReplicaFault(t *testing.T) {
	inj := fault.NewInjector(23)
	app := core.NewApp("bank-sharded-fault", core.Options{Network: inj.Wrap(rpc.NewMem())})
	t.Cleanup(func() { app.Close() })
	b := bootShardedBank(t, app, 2, 2)
	ctx := context.Background()

	if _, _, err := b.Onboard("carol", 5_000_000, 10_000); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	for _, inst := range b.App.Registry.Instances("bank.db-customers") {
		label := inst.Meta[shard.MetaShard]
		if seen[label] {
			continue
		}
		seen[label] = true
		defer inj.Add(fault.Rule{To: "bank.db-customers", Addr: inst.Addr, ErrCode: rpc.CodeUnavailable})()
	}

	var resp CustomerResp
	err := b.Customer.Call(ctx, "Get", CustomerReq{Username: "carol"}, &resp)
	if err != nil || !resp.Found || resp.Customer.Username != "carol" {
		t.Fatalf("customer read under replica fault: err=%v resp=%+v", err, resp)
	}
}

// TestSummaryDegradesWithoutWealth kills the wealthMgmt tier: GET /summary
// serves accounts and balance with the portfolio omitted and Degraded set.
func TestSummaryDegradesWithoutWealth(t *testing.T) {
	boot := func(t *testing.T) (*Banking, *fault.Injector, string) {
		inj := fault.NewInjector(29)
		app := core.NewApp("bank-degrade", core.Options{Network: inj.Wrap(rpc.NewMem())})
		t.Cleanup(func() { app.Close() })
		b, err := New(app, Config{})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		token, _, err := b.Onboard("dora", 6_000_000, 42_000)
		if err != nil {
			t.Fatal(err)
		}
		return b, inj, token
	}

	t.Run("degraded", func(t *testing.T) {
		b, inj, token := boot(t)
		defer inj.Add(fault.Rule{To: "bank.wealthMgmt", ErrCode: rpc.CodeUnavailable})()
		var sum SummaryBody
		if err := b.Frontend.Do(context.Background(), "GET", "/summary?token="+token, nil, &sum); err != nil {
			t.Fatalf("degraded summary should still serve: %v", err)
		}
		if !sum.Degraded {
			t.Fatalf("summary = %+v, want Degraded", sum)
		}
		if len(sum.Accounts) != 1 || sum.BalanceCents != 42_000 {
			t.Fatalf("critical fields lost under degradation: %+v", sum)
		}
		if sum.WealthCents != 0 || len(sum.Holdings) != 0 {
			t.Fatalf("degraded summary should omit portfolio: %+v", sum)
		}
	})
}
