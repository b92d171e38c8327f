package svcutil

import (
	"context"
	"testing"
	"time"

	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
)

type addReq struct{ A, B int64 }
type addResp struct{ Sum int64 }

func TestHandleTyped(t *testing.T) {
	n := rpc.NewMem()
	s := rpc.NewServer("math")
	Handle(s, "Add", func(ctx *rpc.Ctx, req *addReq) (*addResp, error) {
		return &addResp{Sum: req.A + req.B}, nil
	})
	Handle(s, "Nop", func(ctx *rpc.Ctx, req *struct{}) (*struct{}, error) {
		return nil, nil
	})
	Handle(s, "Fail", func(ctx *rpc.Ctx, req *addReq) (*addResp, error) {
		return nil, rpc.Errorf(rpc.CodeConflict, "nope")
	})
	addr, err := s.Start(n, "math:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := rpc.NewClient(n, "math", addr)
	defer c.Close()
	ctx := context.Background()

	var resp addResp
	if err := c.Call(ctx, "Add", addReq{A: 2, B: 3}, &resp); err != nil || resp.Sum != 5 {
		t.Fatalf("Add = %+v, %v", resp, err)
	}
	// Nil request payload decodes into the zero request.
	if err := c.Call(ctx, "Nop", nil, nil); err != nil {
		t.Fatalf("Nop: %v", err)
	}
	if err := c.Call(ctx, "Fail", addReq{}, nil); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("Fail: %v", err)
	}
	// Garbage payload produces a coded bad-request.
	if _, err := c.CallRaw(ctx, "Add", []byte{0xFF}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestKVAndDBWrappers(t *testing.T) {
	n := rpc.NewMem()

	kvSrv := rpc.NewServer("mc")
	kv.RegisterService(kvSrv, kv.New(0))
	kvAddr, err := kvSrv.Start(n, "mc:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kvSrv.Close()

	dbSrv := rpc.NewServer("db")
	docstore.RegisterService(dbSrv, docstore.NewStore())
	dbAddr, err := dbSrv.Start(n, "db:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbSrv.Close()

	ctx := context.Background()
	cache := KV{C: rpc.NewClient(n, "mc", kvAddr)}
	if err := cache.Set(ctx, "k", []byte("v"), time.Minute); err != nil {
		t.Fatal(err)
	}
	v, found, err := cache.Get(ctx, "k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	if nVal, err := cache.Incr(ctx, "n", 7); err != nil || nVal != 7 {
		t.Fatalf("Incr = %d, %v", nVal, err)
	}
	if err := cache.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cache.Get(ctx, "k"); found {
		t.Fatal("deleted key found")
	}

	db := DB{C: rpc.NewClient(n, "db", dbAddr)}
	doc := docstore.Doc{ID: "d1", Fields: map[string]string{"f": "v"}, Nums: map[string]int64{"n": 5}, Body: []byte("b")}
	if err := db.Put(ctx, "c", doc); err != nil {
		t.Fatal(err)
	}
	got, found, err := db.Get(ctx, "c", "d1")
	if err != nil || !found || string(got.Body) != "b" {
		t.Fatalf("Get = %+v, %v, %v", got, found, err)
	}
	if docs, err := db.Find(ctx, "c", "f", "v", 10); err != nil || len(docs) != 1 {
		t.Fatalf("Find = %d, %v", len(docs), err)
	}
}
