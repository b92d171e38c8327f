package controlplane

import (
	"sync"

	"dsb/internal/rest"
	"dsb/internal/rpc"
)

// PlaneConfig configures per-service admission control for a Plane.
type PlaneConfig struct {
	// PerService is the admission config by service name. A service
	// without an entry gets the zero config, which still bounds queues and
	// sheds on CoDel and deadline budget (worker pools stay unbounded).
	PerService map[string]AdmissionConfig
}

// Plane installs the replica-side control plane on every server a core.App
// starts: wire its HookRPC/HookREST into core.Options.RPCServerHook /
// RESTServerHook and each replica gets an admission controller plus a
// load-report endpoint. The plane keeps the per-replica Admission handles
// so tests and experiments can inspect shed counters directly.
type Plane struct {
	cfg PlaneConfig

	mu         sync.Mutex
	admissions map[string][]*Admission // by service, in start order
}

// NewPlane builds a Plane.
func NewPlane(cfg PlaneConfig) *Plane {
	return &Plane{
		cfg:        cfg,
		admissions: make(map[string][]*Admission),
	}
}

func (p *Plane) admissionFor(service string) *Admission {
	a := NewAdmission(p.cfg.PerService[service])
	p.mu.Lock()
	p.admissions[service] = append(p.admissions[service], a)
	p.mu.Unlock()
	return a
}

// HookRPC matches core.Options.RPCServerHook: it guards the replica with a
// fresh Admission and registers its load-report method.
func (p *Plane) HookRPC(service string, srv *rpc.Server) {
	a := p.admissionFor(service)
	srv.Use(Interceptor(a))
	RegisterReport(srv, a)
}

// HookREST matches core.Options.RESTServerHook.
func (p *Plane) HookREST(service string, srv *rest.Server) {
	a := p.admissionFor(service)
	srv.Use(RESTInterceptor(a))
	RegisterRESTReport(srv, a)
}

// Admissions returns the admission controllers created for a service so
// far, one per replica in start order.
func (p *Plane) Admissions(service string) []*Admission {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Admission(nil), p.admissions[service]...)
}
