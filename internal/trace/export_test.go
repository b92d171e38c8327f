package trace

// Dropped returns the number of spans lost to backpressure.
func (c *Collector) Dropped() int64 { return c.dropped.Value() }

// WithSampleRate keeps the given fraction of new traces (head-based
// sampling); the root's decision propagates to every downstream span. The
// default is 1.0 (trace everything), matching the paper's deployments.
func WithSampleRate(rate float64) TracerOption {
	return func(t *Tracer) {
		if rate < 0 {
			rate = 0
		}
		if rate > 1 {
			rate = 1
		}
		t.sampleMille = uint32(rate * 1000)
	}
}
