// Package metrics provides the measurement primitives used throughout the
// suite: log-bucketed latency histograms with percentile queries, atomic
// counters and gauges, sliding windows for utilization tracking, and time
// series used by the experiment drivers to record timelines.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// bucketsPerOctave controls histogram resolution. With 16 sub-buckets per
// power of two the worst-case quantization error is about 6%, comparable to
// HdrHistogram at 2 significant figures, while keeping the bucket array
// small enough to allocate per-service without concern.
const bucketsPerOctave = 16

// maxOctaves covers values from 1ns to ~292 years, i.e. any time.Duration.
const maxOctaves = 64

const numBuckets = maxOctaves * bucketsPerOctave

// Histogram is a log-bucketed histogram of non-negative int64 values,
// typically nanosecond latencies. The zero value is not usable; use
// NewHistogram. All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	counts  []uint32
	count   int64
	sum     int64
	min     int64
	max     int64
	dropped int64 // negative values rejected by Record
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint32, numBuckets),
		min:    math.MaxInt64,
	}
}

// bucketIndex maps a value to its bucket. Values 0 and 1 share the first
// octave's first buckets; the mapping is monotone in v.
func bucketIndex(v int64) int {
	if v < 2 {
		return int(v) // 0 -> 0, 1 -> 1
	}
	// The octave is floor(log2(v)); position within the octave comes from
	// the next log2(bucketsPerOctave) bits below the leading bit.
	octave := 63 - leadingZeros64(uint64(v))
	shift := octave - 4 // log2(bucketsPerOctave) == 4
	var sub int64
	if shift > 0 {
		sub = (v >> uint(shift)) & (bucketsPerOctave - 1)
	} else {
		sub = (v << uint(-shift)) & (bucketsPerOctave - 1)
	}
	idx := octave*bucketsPerOctave + int(sub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value that maps into bucket idx; it is the
// inverse of bucketIndex on bucket lower bounds.
func bucketLow(idx int) int64 {
	if idx < 2 {
		return int64(idx)
	}
	octave := idx / bucketsPerOctave
	sub := idx % bucketsPerOctave
	shift := octave - 4
	base := int64(1) << uint(octave)
	if shift > 0 {
		return base + int64(sub)<<uint(shift)
	}
	return base + int64(sub)>>uint(-shift)
}

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Record adds a value to the histogram. Negative values are counted as
// dropped rather than recorded, so a buggy caller is visible in Snapshot
// instead of corrupting percentiles.
func (h *Histogram) Record(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v < 0 {
		h.dropped++
		return
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration records a latency sample.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Percentile returns the value at quantile p in [0,100]. The result is the
// lower bound of the bucket containing the p-th sample, clamped to the
// recorded min/max so exact values are returned for the extremes. Returns 0
// for an empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.percentileLocked(p)
}

func (h *Histogram) percentileLocked(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// PercentileDuration is Percentile for latency histograms.
func (h *Histogram) PercentileDuration(p float64) time.Duration {
	return time.Duration(h.Percentile(p))
}

// Merge adds all samples of other into h. other is left unchanged.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	oc := make([]uint32, numBuckets)
	copy(oc, other.counts)
	ocount, osum, omin, omax, odropped := other.count, other.sum, other.min, other.max, other.dropped
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range oc {
		h.counts[i] += c
	}
	h.count += ocount
	h.sum += osum
	h.dropped += odropped
	if ocount > 0 {
		if omin < h.min {
			h.min = omin
		}
		if omax > h.max {
			h.max = omax
		}
	}
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum, h.max, h.dropped = 0, 0, 0, 0
	h.min = math.MaxInt64
}

// Snapshot is an immutable summary of a histogram.
type Snapshot struct {
	Count   int64
	Dropped int64
	Sum     int64
	Min     int64
	Max     int64
	Mean    float64
	P50     int64
	P90     int64
	P95     int64
	P99     int64
	P999    int64
}

// Snapshot returns a consistent point-in-time summary.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.count, Dropped: h.dropped, Sum: h.sum, Max: h.max}
	if h.count > 0 {
		s.Min = h.min
		s.Mean = float64(h.sum) / float64(h.count)
		s.P50 = h.percentileLocked(50)
		s.P90 = h.percentileLocked(90)
		s.P95 = h.percentileLocked(95)
		s.P99 = h.percentileLocked(99)
		s.P999 = h.percentileLocked(99.9)
	}
	return s
}

// String renders the snapshot with durations, the common case.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, time.Duration(s.Mean), time.Duration(s.P50),
		time.Duration(s.P95), time.Duration(s.P99), time.Duration(s.Max))
}

// Quantiles computes exact quantiles over a small sample slice; used by
// tests to validate histogram accuracy and by experiments that keep raw
// samples. ps are in [0,100]. The input is not modified.
func Quantiles(samples []int64, ps ...float64) []int64 {
	out := make([]int64, len(ps))
	if len(samples) == 0 {
		return out
	}
	sorted := make([]int64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		if p <= 0 {
			out[i] = sorted[0]
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		out[i] = sorted[rank-1]
	}
	return out
}
