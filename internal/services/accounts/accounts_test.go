package accounts

import (
	"context"
	"testing"

	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// bootAccounts starts the accounts handlers over fresh store and cache tiers
// and returns a client of the login tier and its store.
func bootAccounts(t *testing.T) (*rpc.Client, svcutil.DB) {
	t.Helper()
	net := rpc.NewMem()
	start := func(name string, register func(*rpc.Server)) *rpc.Client {
		srv := rpc.NewServer(name)
		register(srv)
		addr, err := srv.Start(net, name+":1")
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.NewClient(net, name, addr)
		t.Cleanup(func() { c.Close(); srv.Close() })
		return c
	}
	db := svcutil.DB{C: start("db", func(s *rpc.Server) { docstore.RegisterService(s, docstore.NewStore()) })}
	mc := svcutil.KV{C: start("mc", func(s *rpc.Server) { kv.RegisterService(s, kv.New(1<<20)) })}
	return start("login", func(s *rpc.Server) { Register(s, db, mc, "users") }), db
}

func TestHashPasswordSaltMatters(t *testing.T) {
	if hashPassword("pw", "a") == hashPassword("pw", "b") {
		t.Fatal("salt ignored")
	}
	if hashPassword("pw", "a") != hashPassword("pw", "a") {
		t.Fatal("hash not deterministic")
	}
}

// TestRegisterLoginVerify walks one account through the tier: a duplicate
// registration conflicts, a wrong password and an unknown token are
// unauthorized, and the opening balance is stored only when one is given.
func TestRegisterLoginVerify(t *testing.T) {
	login, db := bootAccounts(t)
	ctx := context.Background()
	if err := login.Call(ctx, "Register", RegisterReq{Username: "ann", Password: "pw", BalanceCents: 500}, nil); err != nil {
		t.Fatal(err)
	}
	if err := login.Call(ctx, "Register", RegisterReq{Username: "bob", Password: "pw"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := login.Call(ctx, "Register", RegisterReq{Username: "ann", Password: "other"}, nil); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("second registration of ann: %v, want CodeConflict", err)
	}
	for user, want := range map[string]int{"ann": 1, "bob": 0} {
		doc, found, err := db.Get(ctx, "users", user)
		if err != nil || !found {
			t.Fatalf("%s's document: found %v, %v", user, found, err)
		}
		if len(doc.Nums) != want {
			t.Fatalf("%s's document carries nums %v, want %d", user, doc.Nums, want)
		}
	}

	if err := login.Call(ctx, "Login", LoginReq{Username: "ann", Password: "wrong"}, nil); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("login with a wrong password: %v, want CodeUnauthorized", err)
	}
	var resp LoginResp
	if err := login.Call(ctx, "Login", LoginReq{Username: "ann", Password: "pw"}, &resp); err != nil {
		t.Fatal(err)
	}
	if user, err := Verify(ctx, login, resp.Token); err != nil || user != "ann" {
		t.Fatalf("Verify(ann's token) = %q, %v", user, err)
	}
	if user, err := Verify(ctx, login, "bogus"); !rpc.IsCode(err, rpc.CodeUnauthorized) {
		t.Fatalf("Verify(bogus) = %q, %v; want CodeUnauthorized", user, err)
	}
}
