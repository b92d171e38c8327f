package metrics

import (
	"sync"
	"time"
)

// Windowed is a histogram over a sliding time window: samples land in
// fixed-duration slots and Snapshot merges the live slots, so old samples
// age out as the window rotates. The control plane's load reports use it
// for "recent p99" — a plain Histogram would average a load spike away
// against minutes of idle history, exactly what an autoscaler must not do.
type Windowed struct {
	mu    sync.Mutex
	slots ring[*Histogram]
}

// NewWindowed creates a windowed histogram covering window, divided into n
// slots (coarser slots mean cheaper rotation, at the cost of up to one
// slot's worth of stale samples). Expired slot histograms are recycled, not
// reallocated.
func NewWindowed(window time.Duration, n int) *Windowed {
	if n <= 0 {
		n = 4
	}
	return &Windowed{slots: newRing(window, n, func(h **Histogram) {
		if *h == nil {
			*h = NewHistogram()
		} else {
			(*h).Reset()
		}
	})}
}

// Record adds a sample at the current time.
func (w *Windowed) Record(v int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	(*w.slots.now()).Record(v)
}

// RecordDuration records a latency sample.
func (w *Windowed) RecordDuration(d time.Duration) { w.Record(int64(d)) }

// Snapshot merges the live slots into one point-in-time summary of the
// window ending now.
func (w *Windowed) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.slots.now()
	merged := NewHistogram()
	for _, h := range w.slots.slots {
		merged.Merge(h)
	}
	return merged.Snapshot()
}
