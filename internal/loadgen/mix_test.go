package loadgen

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// TestMixPickProportions draws from a 1:2:7 mix and checks each tenant's
// share converges on its weight.
func TestMixPickProportions(t *testing.T) {
	mix := NewMix(42,
		MixEntry{Name: "a", Weight: 1},
		MixEntry{Name: "b", Weight: 2},
		MixEntry{Name: "c", Weight: 7},
	)
	const draws = 10000
	counts := make(map[string]int)
	for i := 0; i < draws; i++ {
		counts[mix.Pick().Name]++
	}
	want := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.7}
	for name, frac := range want {
		got := float64(counts[name]) / draws
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("tenant %s share = %.3f, want %.3f ± 0.02", name, got, frac)
		}
	}
}

// TestMixDropsNonPositiveWeights checks zero/negative weights never draw
// and an all-dropped mix panics.
func TestMixDropsNonPositiveWeights(t *testing.T) {
	mix := NewMix(7,
		MixEntry{Name: "live", Weight: 1},
		MixEntry{Name: "off", Weight: 0},
		MixEntry{Name: "neg", Weight: -3},
	)
	for i := 0; i < 100; i++ {
		if got := mix.Pick().Name; got != "live" {
			t.Fatalf("drew dropped tenant %q", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty mix did not panic")
		}
	}()
	NewMix(7, MixEntry{Name: "off", Weight: 0})
}

// TestMixDrivesOpenLoop runs a 3:1 two-tenant mix the way its caller does —
// RunOpenLoop with mix.Pick().Do — and checks every arrival reached exactly
// one tenant, in proportion, with the tenants' outcomes kept apart.
func TestMixDrivesOpenLoop(t *testing.T) {
	var aCalls, bCalls atomic.Int64
	mix := NewMix(11,
		MixEntry{Name: "a", Weight: 3, Do: func(ctx context.Context) error {
			aCalls.Add(1)
			return nil
		}},
		MixEntry{Name: "b", Weight: 1, Do: func(ctx context.Context) error {
			bCalls.Add(1)
			return errors.New("tenant b always fails")
		}},
	)
	sched := Schedule(ConstantRate{Gap: 200 * time.Microsecond}, 100*time.Millisecond)
	res := RunOpenLoop(context.Background(), sched, 0,
		func(ctx context.Context, _ Arrival) error { return mix.Pick().Do(ctx) })

	a, b := aCalls.Load(), bCalls.Load()
	if a == 0 || b == 0 {
		t.Fatalf("tenants starved: a=%d b=%d", a, b)
	}
	if res.Issued != int64(len(sched)) || a+b != res.Issued {
		t.Fatalf("issued %d of %d scheduled, tenants saw %d + %d", res.Issued, len(sched), a, b)
	}
	if res.Completed != a || res.Errors != b {
		t.Fatalf("completed %d, errors %d; want tenant a's %d calls and tenant b's %d", res.Completed, res.Errors, a, b)
	}
	if a < 2*b {
		t.Fatalf("3:1 weights but issued %d vs %d", a, b)
	}
}
