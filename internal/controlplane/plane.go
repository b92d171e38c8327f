package controlplane

import (
	"fmt"
	"sync"

	"dsb/internal/core"
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

// AppSpawner adapts a core.App into the controller's Spawner: services are
// made scalable by registering their handler-install function once, after
// which Spawn starts a live replica through the app (picking up the app's
// server hooks, registry entry, and tracing) and Stop deregisters and
// drains it.
type AppSpawner struct {
	app *core.App

	mu        sync.Mutex
	templates map[string]func(*rpc.Server)
	instances map[string]map[string]*core.Instance // service → addr → handle
}

// NewAppSpawner wraps an app.
func NewAppSpawner(app *core.App) *AppSpawner {
	return &AppSpawner{
		app:       app,
		templates: make(map[string]func(*rpc.Server)),
		instances: make(map[string]map[string]*core.Instance),
	}
}

// Define registers the handler-install template Spawn uses for a service.
// Only stateless tiers should be defined: every spawned replica runs the
// same registration.
func (s *AppSpawner) Define(service string, register func(*rpc.Server)) {
	s.mu.Lock()
	s.templates[service] = register
	s.mu.Unlock()
}

// Spawn implements Spawner.
func (s *AppSpawner) Spawn(service string) (string, error) {
	s.mu.Lock()
	register, ok := s.templates[service]
	s.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("controlplane: no template for %q", service)
	}
	inst, err := s.app.StartRPCInstance(service, register)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	byAddr, ok := s.instances[service]
	if !ok {
		byAddr = make(map[string]*core.Instance)
		s.instances[service] = byAddr
	}
	byAddr[inst.Addr] = inst
	s.mu.Unlock()
	return inst.Addr, nil
}

// Stop implements Spawner: deregister first (balancers stop routing), then
// drain and close. Only replicas this spawner started can be stopped — the
// controller's Min floor should cover the statically-started ones.
func (s *AppSpawner) Stop(service, addr string) error {
	s.mu.Lock()
	inst := s.instances[service][addr]
	if inst != nil {
		delete(s.instances[service], addr)
	}
	s.mu.Unlock()
	if inst == nil {
		return fmt.Errorf("controlplane: %s replica %s not spawner-managed", service, addr)
	}
	return inst.Stop()
}
