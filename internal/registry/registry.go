// Package registry implements service discovery for live-mode
// applications: each microservice instance registers its (service, address)
// pair on startup, and clients resolve a service name to the current set of
// addresses. It plays the role of the auxiliary service-discovery tiers the
// paper mentions for the Media service.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps service names to live instance addresses, each optionally
// carrying instance metadata (e.g. the shard index of a sharded store
// replica — see shard.MetaShard).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]map[string]map[string]string // service -> addr -> meta (may be nil)
	watch   map[string][]chan struct{}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		entries: make(map[string]map[string]map[string]string),
		watch:   make(map[string][]chan struct{}),
	}
}

// Instance is one registered replica: its address plus the metadata it
// registered with.
type Instance struct {
	Addr string
	Meta map[string]string
}

// Register adds an instance address for a service. Changed watchers are
// notified only when the address is new: the control plane deregisters and
// re-registers instances as it reconciles, and spurious wakeups would make
// every balancer re-resolve the whole tier on each no-op.
func (r *Registry) Register(service, addr string) {
	r.RegisterInstance(service, addr, nil)
}

// RegisterInstance is Register with instance metadata attached. Sharded
// stateful tiers register each replica with its shard index here so
// routing clients can group the service's otherwise indistinguishable
// replicas into replica sets deterministically. Re-registering an existing
// address replaces its metadata without waking watchers.
func (r *Registry) RegisterInstance(service, addr string, meta map[string]string) {
	r.mu.Lock()
	set, ok := r.entries[service]
	if !ok {
		set = make(map[string]map[string]string)
		r.entries[service] = set
	}
	_, existed := set[addr]
	set[addr] = cloneMeta(meta)
	var watchers []chan struct{}
	if !existed {
		watchers = r.watch[service]
		r.watch[service] = nil
	}
	r.mu.Unlock()
	for _, ch := range watchers {
		close(ch)
	}
}

// Deregister removes an instance address, notifying Changed watchers when
// the address was actually present — scale-down must propagate to balancers
// just as scale-up does, or they keep dialing stopped replicas.
func (r *Registry) Deregister(service, addr string) {
	r.mu.Lock()
	var watchers []chan struct{}
	if set, ok := r.entries[service]; ok {
		if _, present := set[addr]; present {
			delete(set, addr)
			if len(set) == 0 {
				delete(r.entries, service)
			}
			watchers = r.watch[service]
			r.watch[service] = nil
		}
	}
	r.mu.Unlock()
	for _, ch := range watchers {
		close(ch)
	}
}

// Lookup returns the sorted addresses of a service's live instances.
func (r *Registry) Lookup(service string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	set := r.entries[service]
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Instances returns the service's live instances with their metadata,
// sorted by address — the view shard routers group replicas from.
func (r *Registry) Instances(service string) []Instance {
	r.mu.RLock()
	set := r.entries[service]
	out := make([]Instance, 0, len(set))
	for addr, meta := range set {
		out = append(out, Instance{Addr: addr, Meta: cloneMeta(meta)})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func cloneMeta(meta map[string]string) map[string]string {
	if meta == nil {
		return nil
	}
	out := make(map[string]string, len(meta))
	for k, v := range meta {
		out[k] = v
	}
	return out
}

// MustLookup returns the addresses or an error naming the missing service,
// the common client-wiring path.
func (r *Registry) MustLookup(service string) ([]string, error) {
	addrs := r.Lookup(service)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("registry: no instances of %q", service)
	}
	return addrs, nil
}

// Services returns all registered service names, sorted.
func (r *Registry) Services() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for s := range r.entries {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Changed returns a channel closed on the next membership change of the
// service; load balancers use it to refresh backend sets.
func (r *Registry) Changed(service string) <-chan struct{} {
	ch := make(chan struct{})
	r.mu.Lock()
	r.watch[service] = append(r.watch[service], ch)
	r.mu.Unlock()
	return ch
}
