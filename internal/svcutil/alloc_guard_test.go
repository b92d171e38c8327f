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
// copy; an AddNum is a Put's hop with no document to copy and a reply to
// decode. An MGet copies no value or key on either side: the server looks the
// keys up where they lie and writes the values into its pooled reply, and
// the client reads them there, so a batch whose keys share one owner group
// is the client's hit list and boxed request and the server's Ctx, and a
// batch over two groups adds the grouping scratch and a request and a Ctx
// for the second group. The router clients every app runs hold the
// single-backend budgets at 1 × 1, where a Router snapshot hands out its
// read order without copying it and a Find scatters to its one shard on the
// caller's goroutine.
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

	// The layouts Stack wires: 1 × 1, one group labelled "0", as every app
	// runs by default, and the 2 × 2 social_mixed's stores run — each behind
	// one Router with no middleware.
	router11 := shardGroups(t, n, "rmc", 1, 1, func(s *rpc.Server) { kv.RegisterService(s, kv.New(0)) })
	routed := KV{Shards: router11}
	routedDB := DB{Shards: shardGroups(t, n, "rdb", 1, 1, func(s *rpc.Server) { docstore.RegisterService(s, docstore.NewStore()) })}
	router := shardGroups(t, n, "smc", 2, 2, func(s *rpc.Server) { kv.RegisterService(s, kv.New(0)) })
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
	// A batch of four keys that all share "k"'s group at 2 × 2.
	oneGroup := []string{"k"}
	for i := 0; len(oneGroup) < len(batch); i++ {
		if key := "g" + strconv.Itoa(i); router.Owner(key) == label {
			oneGroup = append(oneGroup, key)
		}
	}
	for _, c := range []KV{cache, routed, sharded} {
		for _, key := range append(batch, oneGroup...) {
			if err := c.Set(ctx, key, value, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	mget := func(c KV, batch []string) func() error {
		return func() error {
			hits, err := c.MGet(ctx, batch)
			if err == nil && len(hits) != len(batch) {
				err = errMissed
			}
			hits.Release()
			return err
		}
	}
	addNum := func(d DB) error {
		_, _, _, err := d.AddNum(ctx, "orders", "order-1", "ts", 1, 0, false)
		return err
	}
	find := func(d DB) func() error {
		return func() error {
			docs, err := d.Find(ctx, "orders", "user", "u17", 10)
			if err == nil && len(docs) != 1 {
				err = errMissed
			}
			return err
		}
	}
	for _, d := range []DB{db, routedDB} {
		if err := d.Put(ctx, "orders", doc); err != nil {
			t.Fatal(err)
		}
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
		{"DB.AddNum", 7, func() error { return addNum(db) }},
		{"DB.Find", 12, find(db)},
		{"KV.MGet of 4 hits", 3, mget(cache, batch)},
		{"1x1 KV.Get hit", 6, func() error { _, _, err := routed.Get(ctx, "k"); return err }},
		{"1x1 DB.Get", 11, func() error { _, _, err := routedDB.Get(ctx, "orders", "order-1"); return err }},
		{"1x1 DB.Put", 5, func() error { return routedDB.Put(ctx, "orders", doc) }},
		{"1x1 DB.AddNum", 7, func() error { return addNum(routedDB) }},
		{"1x1 DB.Find", 12, find(routedDB)},
		{"1x1 KV.MGet of 4 hits", 3, mget(routed, batch)},
		{"2x2 KV.Get hit", 6, func() error { _, _, err := sharded.Get(ctx, "k"); return err }},
		{"2x2 KV.Set to two replicas", 8, func() error { return sharded.Set(ctx, "k", value, time.Hour) }},
		{"2x2 KV.MGet of 4 hits over two groups", 8, mget(sharded, batch)},
		{"2x2 KV.MGet of 4 hits in one group", 3, mget(sharded, oneGroup)},
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
		t.Logf("%s: %d objects", hop.name, best)
		if best > hop.budget {
			t.Errorf("%s allocates %d objects per round trip, want ≤%d", hop.name, best, hop.budget)
		}
	}
}

// shardGroups serves shards×replicas instances of a tier on n, each
// registered by register and labelled with its shard index as
// StartShardReplicas labels them, and returns a Router over them.
func shardGroups(t *testing.T, n rpc.Network, name string, shards, replicas int, register func(*rpc.Server)) *shard.Router {
	t.Helper()
	var instances []registry.Instance
	for i := 0; i < shards*replicas; i++ {
		s := rpc.NewServer(name)
		register(s)
		addr, err := s.Start(n, name+":"+strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		instances = append(instances, registry.Instance{Addr: addr, Meta: map[string]string{shard.MetaShard: strconv.Itoa(i / replicas)}})
	}
	router := shard.NewRouter(n, name)
	t.Cleanup(func() { router.Close() })
	router.Sync(instances)
	return router
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
