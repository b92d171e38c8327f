package svcutil

import (
	"context"
	"errors"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/shard"
)

// TestStoreHopAllocGuard pins the allocations of one round trip to a store
// tier over rpc.Mem — client encode, server decode, the store operation, the
// reply and the client decode. The store services reply typed or from the
// pool, every decode takes its strings from one copy of its input, the cache
// decodes its requests on the handler's stack, and docstore keeps a document
// as its wire encoding, so its side of a hop builds no Doc: a Get is the
// server Ctx, the request struct and its one string copy, then the client's
// decode of the reply (the Doc's one string copy, two maps and the body); a
// replacing Put is the client's encode (the request boxed into the codec's
// interface, one key-sorting scratch per map), the server Ctx and the stored
// copy. An MGet copies no value or key on either side: the server looks the
// keys up where they lie and writes the values into its pooled reply, and
// the client reads them there, so a batch is the client's hit list and boxed
// request and the server's Ctx, plus, sharded, the grouping scratch and a
// request and a Ctx per shard.
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

	// The 2×2 layout social_mixed's stores run: two shards of two replicas
	// behind one Router with no middleware.
	var instances []registry.Instance
	for i := 0; i < 4; i++ {
		s := rpc.NewServer("smc")
		kv.RegisterService(s, kv.New(0))
		addr, err := s.Start(n, "smc:"+strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		instances = append(instances, registry.Instance{Addr: addr, Meta: map[string]string{shard.MetaShard: strconv.Itoa(i / 2)}})
	}
	router := shard.NewRouter(n, "smc")
	defer router.Close()
	router.Sync(instances)
	sharded := KV{Shards: router}
	label := router.Owner("k")

	ctx := context.Background()
	doc := docstore.Doc{
		ID:     "order-1",
		Fields: map[string]string{"user": "u17"},
		Nums:   map[string]int64{"ts": 1700000000},
		Body:   make([]byte, 200),
	}
	value := make([]byte, 64)
	batch := []string{"k", "k1", "k2", "k3"}
	for _, c := range []KV{cache, sharded} {
		for _, key := range batch {
			if err := c.Set(ctx, key, value, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	mget := func(c KV) func() error {
		return func() error {
			hits, err := c.MGet(ctx, batch)
			if err == nil && len(hits) != len(batch) {
				err = errMissed
			}
			hits.Release()
			return err
		}
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
		{"KV.Get hit", 6, func() error { _, _, err := cache.Get(ctx, "k"); return err }},
		{"DB.Get", 11, func() error { _, _, err := db.Get(ctx, "orders", "order-1"); return err }},
		{"DB.Put", 5, func() error { return db.Put(ctx, "orders", doc) }},
		// The sharded hop is the unsharded one through a Router snapshot,
		// which hands out its read order without copying it.
		{"sharded KV.Get hit", 6, func() error { _, _, err := sharded.Get(ctx, "k"); return err }},
		{"sharded KV.Set to two replicas", 8, func() error { return sharded.Set(ctx, "k", value, time.Hour) }},
		{"KV.MGet of 4 hits", 3, mget(cache)},
		{"sharded KV.MGet of 4 hits", 8, mget(sharded)},
		{"Router.Route", 0, func() error { return want2(router.Route("k")) }},
		{"Router.GroupReplicas", 0, func() error { return want2(router.GroupReplicas(label)) }},
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

var (
	errNotTwo = errors.New("want the two replicas of a shard")
	errMissed = errors.New("MGet missed a key it was given")
)

func want2(reps []*shard.Replica) error {
	if len(reps) != 2 {
		return errNotTwo
	}
	return nil
}
