package docstore

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// serveRaw boots the store's RPC service over rpc.Mem and returns a caller
// for pre-encoded payloads, so a guard sees the server side of a hop and no
// client-side encode or decode.
func serveRaw(t testing.TB, store *Store) func(method string, payload []byte) []byte {
	t.Helper()
	n := rpc.NewMem()
	srv := rpc.NewServer("db")
	RegisterService(srv, store)
	addr, err := srv.Start(n, "db:0")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(n, "db", addr)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	ctx := context.Background()
	return func(method string, payload []byte) []byte {
		reply, err := c.CallRaw(ctx, method, payload)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return reply
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := codec.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkoutDocs are the two document shapes one ecommerce checkout leaves
// behind: an order (two fields, 180 B body) and its invoice (one field whose
// value no other document shares, 70 B body).
func checkoutDocs(i int) (order, invoice Doc) {
	id := fmt.Sprintf("%016x", 0x0192a1b2c3d40000+i)
	order = Doc{
		ID:     id,
		Fields: map[string]string{"user": fmt.Sprintf("u%d", i%512), "status": "committed"},
		Body:   make([]byte, 180),
	}
	invoice = Doc{ID: "inv-" + id, Fields: map[string]string{"order": id}, Body: make([]byte, 70)}
	return order, invoice
}

// TestStoredDocFootprint pins what a stored document costs in live heap,
// indexes included: the wire form plus sorted-slice indexes measured 395 B
// per checkout-shaped document where a Doc with two maps, under a
// map-of-sets index, cost 1 036.
func TestStoredDocFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap accounting; pinned by the non-race run in make alloc-guard")
	}
	const docs = 20000
	store := NewStore()
	call := serveRaw(t, store)
	payloads := make([][]byte, 0, docs)
	for i := 0; i < docs/2; i++ {
		order, invoice := checkoutDocs(i)
		payloads = append(payloads,
			mustMarshal(t, PutReq{Collection: "orders", Doc: order}),
			mustMarshal(t, PutReq{Collection: "invoices", Doc: invoice}))
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for _, p := range payloads {
		transport.ReleaseBuf(call("Put", p))
	}
	perDoc := float64(heap()-before) / docs
	if n := store.Collection("orders").Len() + store.Collection("invoices").Len(); n != docs {
		t.Fatalf("stored %d documents, want %d", n, docs)
	}
	runtime.KeepAlive(payloads)
	t.Logf("%.0f B of live heap per stored document", perDoc)
	if perDoc > 450 {
		t.Fatalf("a stored document costs %.0f B of live heap, want ≤ 450", perDoc)
	}
}

// TestServiceAllocGuard pins what the store's handlers allocate, measured as
// a raw round trip over rpc.Mem: the server's Ctx (see TestEchoAllocGuard in
// internal/rpc) plus the handler. Get makes its request struct and the two
// strings in it and appends stored bytes to a pooled reply; a replacing Put
// makes the stored copy and nothing else — no Doc, no ID string, no index
// key; ListPrepend makes its request (struct, three strings), the spliced
// encoding and the reply struct, however long the list is.
func TestServiceAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	store := NewStore()
	call := serveRaw(t, store)
	order, _ := checkoutDocs(1)
	put := mustMarshal(t, PutReq{Collection: "orders", Doc: order})
	get := mustMarshal(t, GetReq{Collection: "orders", ID: order.ID})
	prepend := mustMarshal(t, ListPrependReq{Collection: "timelines", ID: "tl:u1", Value: "00000192a1b2c3d4", Cap: 1000})
	call("Put", put)
	for i := 0; i < 1000; i++ {
		call("ListPrepend", prepend)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, hop := range []struct {
		method  string
		payload []byte
		budget  int
	}{
		{"Get", get, 1 + 3},
		{"Put", put, 1 + 1},
		{"ListPrepend", prepend, 1 + 6},
	} {
		run := func() { transport.ReleaseBuf(call(hop.method, hop.payload)) }
		for i := 0; i < 2000; i++ {
			run()
		}
		best := 1 << 30
		for i := 0; i < 5; i++ {
			if got := int(testing.AllocsPerRun(200, run)); got < best {
				best = got
			}
		}
		if best > hop.budget {
			t.Errorf("%s allocates %d objects per round trip, want ≤%d", hop.method, best, hop.budget)
		}
		t.Logf("%s: %d objects per round trip", hop.method, best)
	}
}
