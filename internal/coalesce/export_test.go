package coalesce

// Inflight returns the number of keys with a fetch currently in flight.
func (g *Group[V]) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight)
}
