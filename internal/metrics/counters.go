package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Meter tracks a rate of events over a sliding window of fixed-size slots.
// It is used for per-service request-rate and utilization accounting.
type Meter struct {
	mu    sync.Mutex
	slots ring[int64]
}

// NewMeter creates a meter covering window, divided into n slots.
func NewMeter(window time.Duration, n int) *Meter {
	if n <= 0 {
		n = 10
	}
	return &Meter{slots: newRing(window, n, func(c *int64) { *c = 0 })}
}

// Mark records n events at the current time.
func (m *Meter) Mark(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	*m.slots.now() += n
}

// Rate returns events per second over the window ending now.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slots.now()
	var total int64
	for _, s := range m.slots.slots {
		total += s
	}
	window := m.slots.slotDur * time.Duration(len(m.slots.slots))
	if window <= 0 {
		return 0
	}
	return float64(total) / window.Seconds()
}
