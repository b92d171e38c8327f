package loadgen

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dsb/internal/vtime"
)

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(1000, 42)
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += p.Next()
	}
	mean := total.Seconds() / n
	if mean < 0.0009 || mean > 0.0011 {
		t.Fatalf("mean inter-arrival = %f s, want ~0.001", mean)
	}
}

func TestPoissonZeroRate(t *testing.T) {
	p := NewPoisson(0, 1)
	if p.Next() <= 0 {
		t.Fatal("zero-rate process must still make progress")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a, b := NewPoisson(100, 7), NewPoisson(100, 7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestConstantRate(t *testing.T) {
	c := ConstantRate{Gap: time.Millisecond}
	if c.Next() != time.Millisecond {
		t.Fatal("ConstantRate gap")
	}
}

func TestDiurnalPattern(t *testing.T) {
	d := Diurnal{Period: 24 * time.Hour, Min: 0.2, Max: 1.0}
	if got := d.Eval(0); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("trough = %f", got)
	}
	if got := d.Eval(12 * time.Hour); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("peak = %f", got)
	}
	// Periodicity.
	if math.Abs(d.Eval(6*time.Hour)-d.Eval(30*time.Hour)) > 1e-9 {
		t.Fatal("not periodic")
	}
	zero := Diurnal{Min: 0.5, Max: 2}
	if zero.Eval(time.Hour) != 2 {
		t.Fatal("zero period should pin to max")
	}
}

func TestSpikePattern(t *testing.T) {
	s := Spike{Start: 10 * time.Second, Width: 5 * time.Second, Factor: 4}
	if s.Eval(9*time.Second) != 1 || s.Eval(16*time.Second) != 1 {
		t.Fatal("spike outside window")
	}
	if s.Eval(12*time.Second) != 4 {
		t.Fatal("spike inside window")
	}
}

func TestRampPattern(t *testing.T) {
	r := Ramp{Start: 10 * time.Second, Rise: 4 * time.Second, From: 1, To: 5}
	if got := r.Eval(0); got != 1 {
		t.Fatalf("before ramp = %f", got)
	}
	if got := r.Eval(12 * time.Second); math.Abs(got-3) > 1e-9 {
		t.Fatalf("midpoint = %f, want 3", got)
	}
	if got := r.Eval(14 * time.Second); got != 5 {
		t.Fatalf("plateau start = %f", got)
	}
	if got := r.Eval(time.Hour); got != 5 {
		t.Fatalf("plateau = %f", got)
	}
	// Zero rise degenerates to a step.
	step := Ramp{Start: time.Second, From: 2, To: 8}
	if step.Eval(999*time.Millisecond) != 2 || step.Eval(time.Second) != 8 {
		t.Fatal("zero-rise ramp should step at Start")
	}
}

func TestNonHomogeneousTracksRamp(t *testing.T) {
	// Rate 1000/s ramping 1x→4x across seconds 5..7: the plateau half must
	// carry ~4x the arrivals of the flat half.
	nh := NewNonHomogeneous(1000, Ramp{Start: 5 * time.Second, Rise: 2 * time.Second, From: 1, To: 4}, 4, 17)
	var elapsed time.Duration
	flat, plateau := 0, 0
	for elapsed < 12*time.Second {
		elapsed += nh.Next()
		if elapsed < 5*time.Second {
			flat++
		} else if elapsed >= 7*time.Second && elapsed < 12*time.Second {
			plateau++
		}
	}
	flatRate := float64(flat) / 5
	plateauRate := float64(plateau) / 5
	if ratio := plateauRate / flatRate; ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("ramp plateau ratio = %f (flat=%d plateau=%d), want ~4", ratio, flat, plateau)
	}
}

func TestNonHomogeneousTracksPattern(t *testing.T) {
	// Rate 1000/s modulated by a spike of 3x in the second half. Count
	// arrivals per half over simulated time.
	nh := NewNonHomogeneous(1000, Spike{Start: 5 * time.Second, Width: 5 * time.Second, Factor: 3}, 3, 11)
	var elapsed time.Duration
	first, second := 0, 0
	for elapsed < 10*time.Second {
		elapsed += nh.Next()
		if elapsed < 5*time.Second {
			first++
		} else if elapsed < 10*time.Second {
			second++
		}
	}
	ratio := float64(second) / float64(first)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("spike ratio = %f (first=%d second=%d), want ~3", ratio, first, second)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.0, 5)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 should be drawn about n/H(1000) ~ 13% of the time; rank 99
	// about 100x less.
	if counts[0] < n/10 {
		t.Fatalf("rank 0 drawn %d times, want > %d", counts[0], n/10)
	}
	r := float64(counts[0]) / float64(counts[99]+1)
	if r < 50 || r > 200 {
		t.Fatalf("rank0/rank99 ratio = %f, want ~100", r)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0, 6)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("s=0 not uniform: counts[%d] = %d", i, c)
		}
	}
}

// Property: Zipf draws are always in range for any parameters.
func TestZipfRangeProperty(t *testing.T) {
	f := func(n uint16, s uint8, seed uint64) bool {
		size := int(n%500) + 1
		z := NewZipf(size, float64(s%30)/10, seed)
		for i := 0; i < 100; i++ {
			if d := z.Draw(); d < 0 || d >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSkewedUsers(t *testing.T) {
	// skew 80% => top 20% of users issue 90% of requests.
	s := NewSkewedUsers(100, 80, 9)
	hot := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Draw() < 20 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %f, want ~0.9", frac)
	}
	// skew 0 => uniform.
	u := NewSkewedUsers(100, 0, 10)
	hot = 0
	for i := 0; i < n; i++ {
		if u.Draw() < 20 {
			hot++
		}
	}
	frac = float64(hot) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("uniform hot fraction = %f, want ~0.2", frac)
	}
}

func TestSkewedUsersBounds(t *testing.T) {
	for _, skew := range []float64{-5, 0, 50, 99, 200} {
		s := NewSkewedUsers(10, skew, 1)
		for i := 0; i < 1000; i++ {
			if d := s.Draw(); d < 0 || d >= 10 {
				t.Fatalf("skew %f drew %d", skew, d)
			}
		}
	}
}

func TestRunOpenLoop(t *testing.T) {
	vtime.Run(t, func() {
		sched := Schedule(ConstantRate{Gap: time.Millisecond}, 200*time.Millisecond)
		seen := make([]atomic.Bool, len(sched))
		res := RunOpenLoop(context.Background(), sched, 0,
			func(ctx context.Context, a Arrival) error {
				if a.At != sched[a.Index] || seen[a.Index].Swap(true) {
					t.Errorf("arrival %+v: want each schedule entry handed to do exactly once", a)
				}
				vtime.Advance(time.Millisecond)
				return nil
			})
		// The offered load is the schedule's, however late the timer wakes.
		if res.Issued != int64(len(sched)) || res.Completed != res.Issued {
			t.Fatalf("issued = %d, completed = %d, want the schedule's %d", res.Issued, res.Completed, len(sched))
		}
		if res.Errors != 0 {
			t.Fatalf("errors = %d", res.Errors)
		}
		if res.Latency.Count != res.Completed {
			t.Fatal("latency samples != completions")
		}
		if res.Throughput() <= 0 {
			t.Fatal("throughput = 0")
		}
	})
}

// TestRunOpenLoopTimesFromSchedule pins what latency is counted from. An
// entry already overdue when the send loop reaches it stands in for a
// lagging generator: it is sent 40ms late, returns at once, and must be
// charged those 40ms.
func TestRunOpenLoopTimesFromSchedule(t *testing.T) {
	vtime.Run(t, func() {
		const late = 40 * time.Millisecond
		res := RunOpenLoop(context.Background(), []time.Duration{late, 0}, 0,
			func(ctx context.Context, a Arrival) error { return nil })
		if res.Completed != 2 {
			t.Fatalf("completed = %d, want 2", res.Completed)
		}
		if got := time.Duration(res.Latency.Max); got != late {
			t.Fatalf("overdue arrival's latency = %v, want %v, counted from its scheduled instant", got, late)
		}
		if got := time.Duration(res.Latency.Min); got != 0 {
			t.Fatalf("on-time arrival's latency = %v, want 0", got)
		}
	})
}

// TestWarmupCut checks both loops run their warm-up requests but leave them
// out of the Result.
func TestWarmupCut(t *testing.T) {
	vtime.Run(t, func() {
		const warmup = 50 * time.Millisecond
		sched := Schedule(ConstantRate{Gap: time.Millisecond}, 100*time.Millisecond)
		var calls, measured atomic.Int64
		do := func(ctx context.Context, a Arrival) error {
			calls.Add(1)
			if a.At >= warmup {
				measured.Add(1)
			}
			vtime.Advance(time.Millisecond)
			return nil
		}
		open := RunOpenLoop(context.Background(), sched, warmup, do)
		if calls.Load() != int64(len(sched)) || open.Issued != 50 || open.Issued != measured.Load() {
			t.Fatalf("open loop: %d calls, issued %d, measured %d; want %d calls and the 50 arrivals at or after %v issued",
				calls.Load(), open.Issued, measured.Load(), len(sched), warmup)
		}
		if open.Latency.Count != open.Completed || open.Elapsed != 50*time.Millisecond {
			t.Fatalf("open loop: %d samples for %d completions over %v, want the 50ms after the cut", open.Latency.Count, open.Completed, open.Elapsed)
		}

		calls.Store(0)
		measured.Store(0)
		closed := RunClosedLoop(context.Background(), 2, warmup, 100*time.Millisecond, do)
		// Two workers, one request a millisecond each: 200 calls, half after the cut.
		if closed.Issued != measured.Load() || closed.Issued != 100 || calls.Load() != 200 {
			t.Fatalf("closed loop: %d calls, issued %d, measured %d; want 200 calls and only the 100 sent after %v issued",
				calls.Load(), closed.Issued, measured.Load(), warmup)
		}
	})
}

func TestRunOpenLoopCountsErrors(t *testing.T) {
	var i atomic.Int64
	res := RunOpenLoop(context.Background(), Schedule(ConstantRate{Gap: time.Millisecond}, 100*time.Millisecond), 0,
		func(ctx context.Context, a Arrival) error {
			if i.Add(1)%2 == 0 {
				return context.DeadlineExceeded
			}
			return nil
		})
	if res.Errors == 0 || res.Completed == 0 {
		t.Fatalf("errors=%d completed=%d", res.Errors, res.Completed)
	}
	if res.Issued != res.Errors+res.Completed {
		t.Fatalf("issued %d != errors %d + completed %d", res.Issued, res.Errors, res.Completed)
	}
}

func TestRunOpenLoopRespectsCancel(t *testing.T) {
	vtime.Run(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		start := time.Now()
		RunOpenLoop(ctx, Schedule(ConstantRate{Gap: time.Millisecond}, 10*time.Second), 0,
			func(ctx context.Context, a Arrival) error { return nil })
		if took := time.Since(start); took != 30*time.Millisecond {
			t.Fatalf("returned after %v, want at the cancel 30ms in", took)
		}
	})
}

func TestRunClosedLoop(t *testing.T) {
	vtime.Run(t, func() {
		res := RunClosedLoop(context.Background(), 4, 0, 100*time.Millisecond,
			func(ctx context.Context, a Arrival) error {
				vtime.Advance(5 * time.Millisecond)
				return nil
			})
		// 4 workers * 20 iterations each.
		if res.Completed != 80 {
			t.Fatalf("completed = %d, want 80", res.Completed)
		}
		if res.Issued != res.Completed {
			t.Fatal("issued != completed for error-free run")
		}
	})
}
