package registry

// Expired reports whether the lease ended by TTL expiry or Release.
func (l *Lease) Expired() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}
