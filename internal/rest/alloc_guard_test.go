package rest

import (
	"context"
	"runtime/debug"
	"testing"

	"dsb/internal/rpc"
)

// restCallBudget is the pinned object count of one warmed REST round trip
// over rpc.Mem, both ends — 27 measured, of which net/http's parsers are 16
// (the Request, its URL, both header maps and their lines, the Response, the
// body readers), encoding/json 6 (this item type has no generated codec), and
// the rest the mux's match, the handler's Ctx and boxed reply, Do's
// "VERB /path" and the caller's decoded value.
const restCallBudget = 29

// TestRESTAllocGuard pins what BenchmarkRESTCallMem measures — a GET whose
// JSON reply is decoded into a struct — so a change that gives the exchange
// back its goroutines, its copies or its per-request closures fails here.
func TestRESTAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	n := rpc.NewMem()
	addr, _ := startCatalogue(t, n)
	c := NewClient(n, "catalogue", addr)
	defer c.Close()
	ctx := context.Background()
	if err := c.Do(ctx, "POST", "/items", item{ID: "guard", Name: "n", Price: 2}, nil); err != nil {
		t.Fatal(err)
	}
	call := func() {
		var it item
		if err := c.Do(ctx, "GET", "/items/guard", nil, &it); err != nil || it.Name != "n" {
			t.Fatal(it, err)
		}
	}
	for i := 0; i < 2000; i++ {
		call()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := 1 << 30
	for i := 0; i < 5; i++ {
		if got := int(testing.AllocsPerRun(200, call)); got < best {
			best = got
		}
	}
	t.Logf("REST round trip: %d objects", best)
	if best > restCallBudget {
		t.Errorf("a REST round trip allocates %d objects, want ≤%d", best, restCallBudget)
	}
}
