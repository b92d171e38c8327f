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

// credentialDoc is an accounts tier's login document: the username as ID, a
// 16-hex-digit salt and a 64-hex-digit password hash as fields no Find reads.
func credentialDoc(i int) Doc {
	return Doc{ID: fmt.Sprintf("user_%d", i), Fields: map[string]string{
		"salt": fmt.Sprintf("%016x", i),
		"hash": fmt.Sprintf("%064x", i),
	}}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// storedCost stores payloads, PutReqs of distinct documents, through the
// service and returns the live heap each document adds: stored, again once
// finds have run and built the indexes they read, and again once every
// document has been replaced by an equal one, which must free the old
// encoding, keys into it included.
func storedCost(t *testing.T, payloads [][]byte, finds ...FindReq) (stored, indexed, replaced float64) {
	store := NewStore()
	call := serveRaw(t, store)
	queries := make([][]byte, len(finds))
	for i, f := range finds {
		queries[i] = mustMarshal(t, f)
	}
	before := liveHeap()
	for _, p := range payloads {
		transport.ReleaseBuf(call("Put", p))
	}
	stored = float64(liveHeap()-before) / float64(len(payloads))
	for _, q := range queries {
		transport.ReleaseBuf(call("Find", q))
	}
	indexed = float64(liveHeap()-before) / float64(len(payloads))
	for _, p := range payloads {
		transport.ReleaseBuf(call("Put", p))
	}
	replaced = float64(liveHeap()-before) / float64(len(payloads))
	n := 0
	for _, name := range store.Collections() {
		n += store.Collection(name).Len()
	}
	if n != len(payloads) {
		t.Fatalf("stored %d documents, want %d", n, len(payloads))
	}
	runtime.KeepAlive(payloads)
	runtime.KeepAlive(queries)
	return stored, indexed, replaced
}

// TestStoredDocFootprint pins what a stored document costs in live heap,
// each bound within 10 % of its measurement. A checkout-shaped document
// measured 255 B: its encoding, its slot by number and an ID map key that
// points into the encoding, and no index, since no Find has read a field.
// A Find on orders' user and on invoices' order builds those two indexes,
// 306 B a document with them, and as much once every document is replaced.
// A credential document, whose fields no Find reads, measured 183 B.
func TestStoredDocFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap accounting; pinned by the non-race run in make alloc-guard")
	}
	const docs = 20000
	checkout := make([][]byte, 0, docs)
	credentials := make([][]byte, 0, docs)
	for i := 0; i < docs/2; i++ {
		order, invoice := checkoutDocs(i)
		checkout = append(checkout,
			mustMarshal(t, PutReq{Collection: "orders", Doc: order}),
			mustMarshal(t, PutReq{Collection: "invoices", Doc: invoice}))
	}
	for i := 0; i < docs; i++ {
		credentials = append(credentials, mustMarshal(t, PutReq{Collection: "users", Doc: credentialDoc(i)}))
	}
	order, invoice := checkoutDocs(1)
	stored, indexed, replaced := storedCost(t, checkout,
		FindReq{Collection: "orders", Field: "user", Value: order.Fields["user"], Limit: 1},
		FindReq{Collection: "invoices", Field: "order", Value: invoice.Fields["order"], Limit: 1})
	credential, _, _ := storedCost(t, credentials)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"a checkout document", stored, 280},
		{"a checkout document, once Finds index it", indexed, 335},
		{"a checkout document, indexed and replaced", replaced, 335},
		{"a credential document", credential, 200},
	} {
		t.Logf("%s: %.0f B of live heap", c.what, c.got)
		if c.got > c.want {
			t.Errorf("%s costs %.0f B of live heap, want ≤ %.0f", c.what, c.got, c.want)
		}
	}
}

// TestServiceAllocGuard pins what the store's handlers allocate, measured as
// a raw round trip over rpc.Mem: the server's Ctx (see TestEchoAllocGuard in
// internal/rpc) plus the handler. Get makes its request struct and the two
// strings in it and appends stored bytes to a pooled reply; a replacing Put
// makes the stored copy and nothing else — no Doc, no ID string, no index
// key, and so does a Put of a new ID, whose ID map key points into that
// copy; ListPrepend makes its request (struct, three strings), the spliced
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
	// The insert run needs a new ID each time: its warm-up and five
	// measured rounds of 200 runs, plus one each.
	var inserts [][]byte
	for i := 0; i < 2000+5*201; i++ {
		order, _ := checkoutDocs(2 + i)
		inserts = append(inserts, mustMarshal(t, PutReq{Collection: "orders", Doc: order}))
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, hop := range []struct {
		what, method string
		payloads     [][]byte
		budget       int
	}{
		{"Get", "Get", [][]byte{get}, 1 + 3},
		{"a replacing Put", "Put", [][]byte{put}, 1 + 1},
		{"a Put of a new ID", "Put", inserts, 1 + 1},
		{"ListPrepend", "ListPrepend", [][]byte{prepend}, 1 + 6},
	} {
		next := 0
		run := func() {
			transport.ReleaseBuf(call(hop.method, hop.payloads[next%len(hop.payloads)]))
			next++
		}
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
			t.Errorf("%s allocates %d objects per round trip, want ≤%d", hop.what, best, hop.budget)
		}
		t.Logf("%s: %d objects per round trip", hop.what, best)
	}
}
