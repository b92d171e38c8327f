package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative for the counter to remain
// monotone; callers own that invariant.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Meter tracks a rate of events over a sliding window of fixed-size slots.
// It is used for per-service request-rate and utilization accounting.
type Meter struct {
	mu       sync.Mutex
	slotDur  time.Duration
	slots    []int64
	slotBase int64 // slot index of slots[0] in absolute slot numbering
}

// NewMeter creates a meter covering window, divided into n slots.
func NewMeter(window time.Duration, n int) *Meter {
	if n <= 0 {
		n = 10
	}
	return &Meter{slotDur: window / time.Duration(n), slots: make([]int64, n)}
}

func (m *Meter) slotOf(t time.Time) int64 {
	return t.UnixNano() / int64(m.slotDur)
}

// advance rotates the window so that slot abs is representable.
func (m *Meter) advance(abs int64) {
	if abs < m.slotBase {
		return // stale event; attribute to the oldest slot below
	}
	maxBase := abs - int64(len(m.slots)) + 1
	if maxBase <= m.slotBase {
		return
	}
	shift := maxBase - m.slotBase
	if shift >= int64(len(m.slots)) {
		for i := range m.slots {
			m.slots[i] = 0
		}
	} else {
		copy(m.slots, m.slots[shift:])
		for i := len(m.slots) - int(shift); i < len(m.slots); i++ {
			m.slots[i] = 0
		}
	}
	m.slotBase = maxBase
}

// Mark records n events at the current time.
func (m *Meter) Mark(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	abs := m.slotOf(time.Now())
	m.advance(abs)
	idx := abs - m.slotBase
	if idx < 0 {
		idx = 0
	}
	m.slots[idx] += n
}

// Rate returns events per second over the window ending now.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(m.slotOf(time.Now()))
	var total int64
	for _, s := range m.slots {
		total += s
	}
	window := m.slotDur * time.Duration(len(m.slots))
	if window <= 0 {
		return 0
	}
	return float64(total) / window.Seconds()
}

// Registry is a named collection of histograms, used as the per-process
// metrics root. Lookups create on first use.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Names returns the registered histogram names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Each calls fn for every histogram in name order.
func (r *Registry) Each(fn func(name string, h *Histogram)) {
	for _, n := range r.Names() {
		fn(n, r.Histogram(n))
	}
}
