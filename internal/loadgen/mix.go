package loadgen

import "context"

// MixEntry is one tenant in a multi-application workload mix: a named
// request generator and its relative weight in the combined arrival stream.
type MixEntry struct {
	// Name labels the tenant in per-app results ("social", "media", ...).
	Name string
	// Weight is the entry's share of arrivals, relative to the sum of all
	// weights. Non-positive weights are dropped from the mix.
	Weight float64
	// Do issues one request for this tenant; it must be safe for concurrent
	// use.
	Do func(ctx context.Context) error
}

// Mix assigns each arrival of one open-loop process to a tenant by weighted
// draw, modelling several applications sharing a cluster: the *combined*
// offered load follows the arrival process, and every tenant sees a
// binomially-thinned slice of it — exactly how co-located services share a
// front door. A mix is driven by RunOpenLoop with a do that calls
// mix.Pick().Do. Pick is safe for concurrent use.
type Mix struct {
	entries []MixEntry
	cdf     []float64
	src     *Source
}

// NewMix builds a weighted mix over the entries (non-positive weights are
// dropped). It panics when no entry has positive weight — a mix with
// nothing to draw is a composition bug, not a runtime condition.
func NewMix(seed uint64, entries ...MixEntry) *Mix {
	m := &Mix{src: NewSource(seed)}
	var sum float64
	for _, e := range entries {
		if e.Weight <= 0 {
			continue
		}
		sum += e.Weight
		m.entries = append(m.entries, e)
		m.cdf = append(m.cdf, sum)
	}
	if len(m.entries) == 0 {
		panic("loadgen: mix has no entry with positive weight")
	}
	for i := range m.cdf {
		m.cdf[i] /= sum
	}
	return m
}

// Pick draws the tenant for the next arrival.
func (m *Mix) Pick() MixEntry {
	u := m.src.Float64()
	lo, hi := 0, len(m.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.entries[lo]
}
