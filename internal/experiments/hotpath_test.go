package experiments

import (
	"testing"

	"dsb/internal/vtime"
)

// TestHotPathShape asserts the directional claims of the hotpath
// experiment: miss coalescing must cut backing-store fetches by at least an
// order of magnitude under a concurrent-miss stampede, and the bounded
// parallel fan-out must both beat the sequential walk and deliver every
// append.
func TestHotPathShape(t *testing.T) {
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		co, err := hotpathStampede(false)
		if err != nil {
			t.Fatal(err)
		}
		un, err := hotpathStampede(true)
		if err != nil {
			t.Fatal(err)
		}
		// Each wave misses at least once: the count cannot be below one fetch
		// per invalidation (that would mean the store was never consulted).
		if co.dbGets < int64(co.waves) {
			t.Fatalf("coalesced fetches = %d, want >= %d (one per wave)", co.dbGets, co.waves)
		}
		if un.dbGets < 10*co.dbGets {
			t.Fatalf("uncoalesced fetches = %d vs coalesced %d: stampede not reduced >= 10x", un.dbGets, co.dbGets)
		}

		pooled, err := hotpathFanout(0)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := hotpathFanout(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []fanoutResult{pooled, seq} {
			if f.delivered != f.appends {
				t.Fatalf("delivered %d of %d appends: fan-out lost entries", f.delivered, f.appends)
			}
		}
		if pooled.p50 >= seq.p50 {
			t.Fatalf("pooled p50 %v not below sequential p50 %v", pooled.p50, seq.p50)
		}
	})
}
