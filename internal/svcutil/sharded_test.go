package svcutil_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/svcutil"
	"dsb/internal/vtime"
)

// bootKVShards starts a sharded kv tier on a fresh app and returns the
// routing client. Each (shard, replica) pair gets its own Cache — the
// replicas are converged only by write-all and read-repair.
func bootKVShards(t *testing.T, shards, replicas int) (*core.App, svcutil.KV) {
	t.Helper()
	app := core.NewApp("shardtest", core.Options{DisableTracing: true})
	t.Cleanup(func() { app.Close() })
	err := svcutil.StartShardReplicas(app, "store.kv", shards, replicas, func(s, r int) func(*rpc.Server) {
		return func(srv *rpc.Server) { kv.RegisterService(srv, kv.New(1<<20)) }
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := app.ShardedRPC("client", "store.kv")
	if err != nil {
		t.Fatal(err)
	}
	return app, svcutil.KV{Shards: router}
}

// TestStartShardReplicasAttachesMetadata is the registration contract:
// every instance of a sharded tier must carry its shard index in registry
// metadata, or routers cannot tell the service's replicas apart.
func TestStartShardReplicasAttachesMetadata(t *testing.T) {
	app, _ := bootKVShards(t, 3, 2)
	counts := make(map[string]int)
	for _, inst := range app.Registry.Instances("store.kv") {
		label, ok := inst.Meta[shard.MetaShard]
		if !ok {
			t.Fatalf("instance %s registered without a shard label", inst.Addr)
		}
		counts[label]++
	}
	for s := 0; s < 3; s++ {
		if got := counts[strconv.Itoa(s)]; got != 2 {
			t.Fatalf("shard %d has %d registered replicas, want 2", s, got)
		}
	}
}

// TestShardedKVRoundTrip exercises write-all/read-one across shards: every
// key set through the client must come back, and keys must actually spread
// over more than one shard.
func TestShardedKVRoundTrip(t *testing.T) {
	_, store := bootKVShards(t, 4, 2)
	ctx := context.Background()
	owners := make(map[string]bool)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := store.Set(ctx, key, []byte("v-"+key), 0); err != nil {
			t.Fatal(err)
		}
		owners[store.Shards.Owner(key)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("64 keys landed on %d shards, want spread", len(owners))
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, found, err := store.Get(ctx, key)
		if err != nil || !found || string(v) != "v-"+key {
			t.Fatalf("Get(%s) = %q, %v, %v", key, v, found, err)
		}
	}
	if err := store.Delete(ctx, "key-0"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := store.Get(ctx, "key-0"); err != nil || found {
		t.Fatalf("deleted key still found (err=%v)", err)
	}
	if n, err := store.Incr(ctx, "ctr", 5); err != nil || n != 5 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	if n, err := store.Incr(ctx, "ctr", 2); err != nil || n != 7 {
		t.Fatalf("Incr = %d, %v (replicas diverged?)", n, err)
	}
}

// TestShardedKVReadRepair wipes a key from one replica directly (a replica
// restarted empty) and checks that reads keep succeeding via the sibling
// and that the wiped replica is repaired with a bounded TTL.
func TestShardedKVReadRepair(t *testing.T) {
	app, store := bootKVShards(t, 1, 2)
	ctx := context.Background()
	if err := store.Set(ctx, "hot", []byte("value"), 0); err != nil {
		t.Fatal(err)
	}

	reps := store.Shards.Replicas()
	if len(reps) != 2 {
		t.Fatalf("want 2 replicas, got %d", len(reps))
	}
	wiped := reps[1].Addr()
	direct := rpc.NewClient(app.Net, "store.kv", wiped)
	defer direct.Close()
	var del kv.DeleteResp
	if err := direct.Call(ctx, "Delete", kv.DeleteReq{Key: "hot"}, &del); err != nil || !del.Existed {
		t.Fatalf("direct delete: %v existed=%v", err, del.Existed)
	}

	// Enough reads to rotate the read head across both replicas: each must
	// find the value, with the wiped replica served by sibling fallback.
	for i := 0; i < 4; i++ {
		v, found, err := store.Get(ctx, "hot")
		if err != nil || !found || string(v) != "value" {
			t.Fatalf("read %d after wipe: %q, %v, %v", i, v, found, err)
		}
	}
	// Read-repair restored the entry on the wiped replica.
	var resp kv.GetResp
	if err := direct.Call(ctx, "Get", kv.GetReq{Key: "hot"}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Found || string(resp.Value) != "value" {
		t.Fatalf("wiped replica not repaired: %q, found=%v", resp.Value, resp.Found)
	}
}

// TestShardedKVMGet checks the batch path groups by owning shard and
// returns exactly the found subset.
func TestShardedKVMGet(t *testing.T) {
	_, store := bootKVShards(t, 4, 1)
	ctx := context.Background()
	var keys []string
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("mk-%d", i)
		keys = append(keys, key)
		if err := store.Set(ctx, key, []byte("v-"+key), 0); err != nil {
			t.Fatal(err)
		}
	}
	keys = append(keys, "absent-1", "absent-2")
	got, err := store.MGet(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("MGet returned %d entries, want 32", len(got))
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("mk-%d", i)
		if string(got[key]) != "v-"+key {
			t.Fatalf("MGet[%s] = %q", key, got[key])
		}
	}
	if _, ok := got["absent-1"]; ok {
		t.Fatal("MGet returned a missing key")
	}
}

// TestShardedDB exercises the docstore policies: point ops route by ID,
// Find scatters to every shard and merges with the single-store ordering
// contract, ListPrepend and AddNum apply to the whole replica set.
func TestShardedDB(t *testing.T) {
	app := core.NewApp("shardtest", core.Options{DisableTracing: true})
	t.Cleanup(func() { app.Close() })
	var stores []*docstore.Store
	err := svcutil.StartShardReplicas(app, "store.db", 3, 2, func(s, r int) func(*rpc.Server) {
		store := docstore.NewStore()
		stores = append(stores, store)
		return func(srv *rpc.Server) { docstore.RegisterService(srv, store) }
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := app.ShardedRPC("client", "store.db")
	if err != nil {
		t.Fatal(err)
	}
	db := svcutil.DB{Shards: router}
	ctx := context.Background()

	for i := 0; i < 30; i++ {
		doc := docstore.Doc{
			ID:     fmt.Sprintf("doc-%02d", i),
			Fields: map[string]string{"author": "u" + strconv.Itoa(i%3)},
			Nums:   map[string]int64{"ts": int64(1000 + i)},
			Body:   []byte(fmt.Sprintf("body-%d", i)),
		}
		if err := db.Put(ctx, "posts", doc); err != nil {
			t.Fatal(err)
		}
	}

	doc, found, err := db.Get(ctx, "posts", "doc-07")
	if err != nil || !found || string(doc.Body) != "body-7" {
		t.Fatalf("Get = %+v, %v, %v", doc, found, err)
	}

	// Find merges across shards sorted by ID ascending, limit applied
	// globally: u0 authors docs 0,3,6,...,27 — ten in all.
	docs, err := db.Find(ctx, "posts", "author", "u0", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 {
		t.Fatalf("Find limit: got %d docs", len(docs))
	}
	want := []string{"doc-00", "doc-03", "doc-06", "doc-09"}
	for i, d := range docs {
		if d.ID != want[i] {
			t.Fatalf("Find order: got %s at %d, want %s", d.ID, i, want[i])
		}
	}

	if n, err := db.ListPrepend(ctx, "timelines", "u0", "doc-29", 10); err != nil || n != 1 {
		t.Fatalf("ListPrepend = %d, %v", n, err)
	}
	if n, err := db.ListPrepend(ctx, "timelines", "u0", "doc-28", 10); err != nil || n != 2 {
		t.Fatalf("ListPrepend = %d, %v", n, err)
	}

	// AddNum reaches every replica of the owner group, and adds commute: after
	// eight concurrent adders both copies of the document hold the same sum.
	const adders, adds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if _, found, ok, err := db.AddNum(ctx, "posts", "doc-05", "likes", 1, 0); err != nil || !found || !ok {
					t.Errorf("AddNum = %v, %v, %v", found, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	copies := 0
	for _, store := range stores {
		if d, ok := store.Collection("posts").Get("doc-05"); ok {
			copies++
			if d.Nums["likes"] != adders*adds || d.Nums["ts"] != 1005 {
				t.Fatalf("a replica holds likes=%d ts=%d, want %d and 1005", d.Nums["likes"], d.Nums["ts"], adders*adds)
			}
		}
	}
	if copies != 2 {
		t.Fatalf("doc-05 lives on %d replicas, want 2", copies)
	}
	if v, found, ok, err := db.AddNum(ctx, "posts", "doc-05", "likes", -adders*adds-1, 0); err != nil || !found || ok || v != adders*adds {
		t.Fatalf("AddNum below the floor = %d, %v, %v, %v", v, found, ok, err)
	}
	if _, found, _, err := db.AddNum(ctx, "posts", "no-such-doc", "likes", 1, 0); err != nil || found {
		t.Fatalf("AddNum on a missing document: found=%v err=%v", found, err)
	}
}

// TestShardedKVLeaseFailover kills one replica of a leased tier and checks
// the client keeps serving: before eviction, reads that land on the dead
// head fall back to the sibling; after lease expiry the ring re-forms and
// routes around the corpse entirely.
func TestShardedKVLeaseFailover(t *testing.T) {
	vtime.Run(t, func() {
		const ttl = 80 * time.Millisecond
		app := core.NewApp("shardtest", core.Options{DisableTracing: true, LeaseTTL: ttl})
		defer app.Close()
		err := svcutil.StartShardReplicas(app, "store.kv", 2, 2, func(s, r int) func(*rpc.Server) {
			return func(srv *rpc.Server) { kv.RegisterService(srv, kv.New(1<<20)) }
		})
		if err != nil {
			t.Fatal(err)
		}
		router, err := app.ShardedRPC("client", "store.kv")
		if err != nil {
			t.Fatal(err)
		}
		store := svcutil.KV{Shards: router}
		ctx := context.Background()
		for i := 0; i < 16; i++ {
			if err := store.Set(ctx, fmt.Sprintf("key-%d", i), []byte("v"), 0); err != nil {
				t.Fatal(err)
			}
		}

		// Crash the first replica of shard 0: it stops heartbeating and hangs.
		victim := router.GroupReplicas("0")[0].Addr()
		killed := time.Now()
		for _, inst := range app.Instances("store.kv") {
			if inst.Addr == victim {
				inst.Kill()
			}
		}

		// Until eviction, calls that pick the corpse hang to their deadline and
		// fall back to the live sibling — reads still succeed, just slower.
		shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, _, _ = store.Get(shortCtx, "key-0") //nolint:errcheck // warms nothing; may hit either replica
		cancel()

		// One TTL after the kill the registry has evicted the corpse and the
		// router dropped it.
		vtime.Advance(time.Until(killed.Add(ttl)))
		vtime.Wait()
		if len(router.GroupReplicas("0")) != 1 {
			t.Fatalf("router still routes to killed replica %s", victim)
		}
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("key-%d", i)
			if _, found, err := store.Get(ctx, key); err != nil || !found {
				t.Fatalf("post-eviction Get(%s): found=%v err=%v", key, found, err)
			}
		}
	})
}
