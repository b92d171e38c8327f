package metrics

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if got := h.Snapshot().Count; got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	if got := h.Percentile(99); got != 0 {
		t.Fatalf("Percentile(99) on empty = %d, want 0", got)
	}
	if s := h.Snapshot(); s.Mean != 0 || s.Min != 0 {
		t.Fatalf("empty snapshot = %+v, want zero mean and min", s)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Percentile(p); got > 12345 || got < 12345*15/16 {
			t.Errorf("Percentile(%v) = %d, want ~12345", p, got)
		}
	}
	if s := h.Snapshot(); s.Min != 12345 || s.Max != 12345 {
		t.Errorf("Min, Max = %d, %d, want 12345", s.Min, s.Max)
	}
}

func TestHistogramNegativeDropped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	h.Record(10)
	s := h.Snapshot()
	if s.Count != 1 || s.Dropped != 1 {
		t.Fatalf("got count=%d dropped=%d, want 1,1", s.Count, s.Dropped)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	// Exhaustive over small values, then exponentially sampled.
	for v := int64(0); v < 1<<20; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
	for v := int64(1 << 20); v > 0 && v < math.MaxInt64/3; v = v*3 + 1 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
	}
}

func TestBucketLowInvertsIndex(t *testing.T) {
	// For any value v, bucketLow(bucketIndex(v)) must be a value <= v that
	// falls in the same bucket. (Not every index is in the image of
	// bucketIndex: octaves below 16 cannot fill all 16 sub-buckets.)
	check := func(v int64) {
		idx := bucketIndex(v)
		low := bucketLow(idx)
		if low > v {
			t.Fatalf("bucketLow(%d) = %d > v = %d", idx, low, v)
		}
		if got := bucketIndex(low); got != idx {
			t.Fatalf("bucketIndex(bucketLow(bucketIndex(%d))) = %d, want %d", v, got, idx)
		}
	}
	for v := int64(0); v < 1<<16; v++ {
		check(v)
	}
	for v := int64(1 << 16); v > 0 && v < math.MaxInt64/3; v = v*3 + 7 {
		check(v)
	}
}

// TestHistogramQuantileAccuracy checks that histogram percentiles are within
// one bucket (6.25% relative error) of exact quantiles for random data.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := NewHistogram()
	samples := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform values spanning 1us..1s in nanoseconds.
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3)
		h.Record(v)
		samples = append(samples, v)
	}
	ps := []float64{50, 90, 95, 99, 99.9}
	exact := Quantiles(samples, ps...)
	for i, p := range ps {
		got := h.Percentile(p)
		lo := float64(exact[i]) * (1 - 1.0/bucketsPerOctave - 0.001)
		hi := float64(exact[i]) * (1 + 1.0/bucketsPerOctave + 0.001)
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("P%v = %d, exact %d (allowed [%f, %f])", p, got, exact[i], lo, hi)
		}
	}
}

// Property: percentiles are monotone in p, and bounded by [Min, Max].
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		s := h.Snapshot()
		for p := 0.0; p <= 100; p += 2.5 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			if cur < s.Min || cur > s.Max {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging two histograms preserves count and sum, and the merged
// max/min are the extremes of the parts.
func TestHistogramMergeProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		ha, hb := NewHistogram(), NewHistogram()
		for _, v := range a {
			ha.Record(int64(v))
		}
		for _, v := range b {
			hb.Record(int64(v))
		}
		sa, sb := ha.Snapshot(), hb.Snapshot()
		wantCount := sa.Count + sb.Count
		wantSum := sa.Sum + sb.Sum
		wantMax := max(sa.Max, sb.Max)
		ha.Merge(hb)
		got := ha.Snapshot()
		return got.Count == wantCount && got.Sum == wantSum && got.Max == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Max != 0 || h.Percentile(50) != 0 {
		t.Fatalf("Reset did not clear: %+v", s)
	}
	h.Record(7)
	if s := h.Snapshot(); s.Min != 7 || s.Max != 7 {
		t.Fatalf("post-reset record broken: min=%d max=%d", s.Min, s.Max)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Millisecond)
	s := h.Snapshot().String()
	if s == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestQuantilesExact(t *testing.T) {
	samples := []int64{5, 1, 3, 2, 4}
	got := Quantiles(samples, 0, 50, 100)
	want := []int64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Error("Quantiles modified its input")
	}
	if got := Quantiles(nil, 50); got[0] != 0 {
		t.Errorf("Quantiles(nil) = %d, want 0", got[0])
	}
}
