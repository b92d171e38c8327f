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
	mu       sync.Mutex
	slotDur  time.Duration
	slots    []*Histogram
	slotBase int64 // slot index of slots[0] in absolute slot numbering
}

// NewWindowed creates a windowed histogram covering window, divided into n
// slots (coarser slots mean cheaper rotation, at the cost of up to one
// slot's worth of stale samples).
func NewWindowed(window time.Duration, n int) *Windowed {
	if n <= 0 {
		n = 4
	}
	slots := make([]*Histogram, n)
	for i := range slots {
		slots[i] = NewHistogram()
	}
	return &Windowed{slotDur: window / time.Duration(n), slots: slots}
}

func (w *Windowed) slotOf(t time.Time) int64 {
	return t.UnixNano() / int64(w.slotDur)
}

// advance rotates the window so that slot abs is representable, recycling
// expired slot histograms instead of reallocating them.
func (w *Windowed) advance(abs int64) {
	if abs < w.slotBase {
		return // stale sample; attribute to the oldest slot below
	}
	maxBase := abs - int64(len(w.slots)) + 1
	if maxBase <= w.slotBase {
		return
	}
	shift := maxBase - w.slotBase
	if shift >= int64(len(w.slots)) {
		for _, h := range w.slots {
			h.Reset()
		}
	} else {
		expired := make([]*Histogram, shift)
		copy(expired, w.slots[:shift])
		copy(w.slots, w.slots[shift:])
		for i, h := range expired {
			h.Reset()
			w.slots[len(w.slots)-int(shift)+i] = h
		}
	}
	w.slotBase = maxBase
}

// Record adds a sample at the current time.
func (w *Windowed) Record(v int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	abs := w.slotOf(time.Now())
	w.advance(abs)
	idx := abs - w.slotBase
	if idx < 0 {
		idx = 0
	}
	w.slots[idx].Record(v)
}

// RecordDuration records a latency sample.
func (w *Windowed) RecordDuration(d time.Duration) { w.Record(int64(d)) }

// Snapshot merges the live slots into one point-in-time summary of the
// window ending now.
func (w *Windowed) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advance(w.slotOf(time.Now()))
	merged := NewHistogram()
	for _, h := range w.slots {
		merged.Merge(h)
	}
	return merged.Snapshot()
}
