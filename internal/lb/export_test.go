package lb

// BackendStats is a point-in-time health snapshot of one backend replica.
type BackendStats struct {
	Addr     string
	InFlight int64 // requests outstanding right now
	Requests int64 // total attempts routed here since AddBackend
	Failures int64 // attempts that ended in a failure signal
	// Breaker is the replica's circuit-breaker state ("closed", "open",
	// "half-open"), or "" when the balancer was built without
	// WithBackendInstrument.
	Breaker string
}

// Stats returns a per-backend health snapshot, in backend order.
func (b *Balanced) Stats() []BackendStats {
	backends := b.snap.Load().backends
	out := make([]BackendStats, len(backends))
	for i, be := range backends {
		s := BackendStats{
			Addr:     be.addr,
			InFlight: be.outstanding.Load(),
			Requests: be.requests.Load(),
			Failures: be.failures.Load(),
		}
		if be.breaker != nil {
			s.Breaker = be.breaker()
		}
		out[i] = s
	}
	return out
}
