package svcutil

import (
	"context"
	"runtime/debug"
	"testing"
	"time"

	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
)

// TestStoreHopAllocGuard pins the allocations of one round trip to a store
// tier over rpc.Mem — client encode, server decode, the store operation, the
// reply and the client decode. The store services reply from the pool, and
// docstore keeps a document as its wire encoding, so its side of a hop builds
// no Doc: a Get is the server Ctx, the request struct and its two strings,
// then the client's decode of the reply (the Doc's ID, two maps, their keys
// and values, and the body); a replacing Put is the client's encode (the
// request boxed into the codec's interface, one key-sorting scratch per map),
// the server Ctx and the stored copy.
func TestStoreHopAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	n := rpc.NewMem()
	kvSrv := rpc.NewServer("mc")
	kv.RegisterService(kvSrv, kv.New(0))
	kvAddr, err := kvSrv.Start(n, "mc:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kvSrv.Close()
	kvClient := rpc.NewClient(n, "mc", kvAddr)
	defer kvClient.Close()
	db := serveDB(t, docstore.NewStore())
	cache := KV{C: kvClient}

	ctx := context.Background()
	doc := docstore.Doc{
		ID:     "order-1",
		Fields: map[string]string{"user": "u17"},
		Nums:   map[string]int64{"ts": 1700000000},
		Body:   make([]byte, 200),
	}
	if err := cache.Set(ctx, "k", make([]byte, 64), time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, "orders", doc); err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, hop := range []struct {
		name   string
		budget int
		call   func() error
	}{
		{"KV.Get hit", 7, func() error { _, _, err := cache.Get(ctx, "k"); return err }},
		{"DB.Get", 16, func() error { _, _, err := db.Get(ctx, "orders", "order-1"); return err }},
		{"DB.Put", 6, func() error { return db.Put(ctx, "orders", doc) }},
	} {
		call := func() {
			if err := hop.call(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the pools and the server's worker set (see TestEchoAllocGuard
		// in internal/rpc), then take the best of several runs.
		for i := 0; i < 2000; i++ {
			call()
		}
		best := 1 << 30
		for i := 0; i < 5; i++ {
			if got := int(testing.AllocsPerRun(200, call)); got < best {
				best = got
			}
		}
		if best > hop.budget {
			t.Errorf("%s allocates %d objects per round trip, want ≤%d", hop.name, best, hop.budget)
		}
	}
}
