package registry

import (
	"sync"
	"time"
)

// Lease is a registration with a health TTL. The owning instance must call
// Renew before the TTL elapses or the registry evicts the address and
// notifies Changed watchers, exactly as an explicit Deregister would. This
// is what lets crashed replicas actually leave the serving set: a clean
// shutdown calls Release, a crash simply stops heartbeating.
type Lease struct {
	r       *Registry
	service string
	addr    string
	ttl     time.Duration

	mu       sync.Mutex
	deadline time.Time
	timer    *time.Timer
	done     bool
}

// RegisterLease registers the address with its instance metadata (nil for
// none; sharded stateful tiers carry a shard index) and arms a TTL. It
// behaves like RegisterInstance for watchers (notified only when the address
// is new); eviction on expiry behaves like Deregister (notified only when the
// address was still present), so a lease that expires fires Changed exactly
// once and a lease that is renewed fires nothing.
func (r *Registry) RegisterLease(service, addr string, ttl time.Duration, meta map[string]string) *Lease {
	r.RegisterInstance(service, addr, meta)
	l := &Lease{r: r, service: service, addr: addr, ttl: ttl}
	l.deadline = time.Now().Add(ttl)
	l.timer = time.AfterFunc(ttl, l.expire)
	return l
}

// Renew extends the lease by its TTL. It reports false when the lease has
// already expired or been released; a heartbeat loop should stop on false
// rather than silently re-register — the eviction already told balancers the
// replica is gone, and only a deliberate restart should bring it back.
func (l *Lease) Renew() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return false
	}
	l.deadline = time.Now().Add(l.ttl)
	l.timer.Reset(l.ttl)
	return true
}

// Release ends the lease and deregisters the address immediately (clean
// shutdown). Idempotent; safe to call after expiry.
func (l *Lease) Release() {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	l.done = true
	l.timer.Stop()
	l.mu.Unlock()
	l.r.Deregister(l.service, l.addr)
}

// expire runs on the lease timer. A Renew that landed while the timer was
// firing moved the deadline forward; detect that under the lock and re-arm
// for the remainder instead of evicting a healthy replica.
func (l *Lease) expire() {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	if remaining := time.Until(l.deadline); remaining > 0 {
		l.timer.Reset(remaining)
		l.mu.Unlock()
		return
	}
	l.done = true
	l.mu.Unlock()
	l.r.Deregister(l.service, l.addr)
}
