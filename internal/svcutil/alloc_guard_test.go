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
// reply and the client decode. The store services reply from the pool and
// docstore neither copies the Doc it decoded nor the Doc it encodes, so what
// is left is the server Ctx, the values the codec decodes into (strings, the
// Doc's two maps and body, once per direction) and the reply struct escaping
// into the codec's interface.
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
	kvClient := rpc.NewClient(n, "mc", kvAddr, rpc.WithPoolSize(1))
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
		{"DB.Get", 19, func() error { _, _, err := db.Get(ctx, "orders", "order-1"); return err }},
		{"DB.Put", 18, func() error { return db.Put(ctx, "orders", doc) }},
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
