// Package core is the composition root for live-mode applications: it
// boots microservice servers on a shared transport, registers them for
// discovery, wires load-balanced clients between tiers, and threads the
// distributed tracer through every hop. Each end-to-end application in
// internal/services builds itself on top of an App.
package core

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/lb"
	"dsb/internal/registry"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/trace"
	"dsb/internal/transport"
)

// App owns the shared infrastructure of one running application: network,
// registry, tracer, and every server and client started through it.
type App struct {
	Name     string
	Net      rpc.Network
	Registry *registry.Registry
	Tracer   *trace.Tracer
	Traces   *trace.Store
	// Resilience, when non-nil, is the tail-tolerance bundle installed on
	// every load-balanced client the app wires (see Options.Resilience).
	Resilience *transport.ResilienceConfig
	// Transport exposes the resilience middleware counters (retries, hedge
	// wins, breaker trips) when Resilience is enabled.
	Transport *transport.Stats

	collector *trace.Collector
	instance  atomic.Uint64
	clientMW  []transport.Middleware
	rpcHook   func(service string, srv *rpc.Server)
	restHook  func(service string, srv *rest.Server)
	leaseTTL  time.Duration

	mu        sync.Mutex
	closers   []io.Closer
	servers   []*rpc.Server
	rests     []*rest.Server
	instances map[string][]*Instance
	defined   map[string]func(*rpc.Server)
	closed    bool
}

// Options configure an App.
type Options struct {
	// Network overrides the transport; nil means a fresh in-memory network.
	Network rpc.Network
	// DisableTracing turns off span collection.
	DisableTracing bool
	// TraceBuffer sizes the collector channel (0 = default).
	TraceBuffer int
	// Resilience, when non-nil, installs the deadline-budget → retry →
	// hedge stack on every load-balanced client the app wires, plus one
	// circuit breaker per backend replica. Use transport.NewResilience()
	// for the all-defaults bundle.
	Resilience *transport.ResilienceConfig
	// ClientMiddleware is appended to every client the app wires, between
	// tracing and the resilience stack (fault injection hooks in here).
	ClientMiddleware []transport.Middleware
	// RPCServerHook, when set, runs for every RPC server instance the app
	// starts — after handlers are registered, before it begins listening.
	// The control plane installs admission control and the load-report
	// endpoint here, so every replica of every tier gets them uniformly.
	RPCServerHook func(service string, srv *rpc.Server)
	// RESTServerHook is RPCServerHook for REST servers.
	RESTServerHook func(service string, srv *rest.Server)
	// LeaseTTL, when positive, registers every instance under a health
	// lease renewed by a background heartbeat (every TTL/3). A replica that
	// stops heartbeating — Instance.Kill, or a wedged process — is evicted
	// from the registry within one TTL and balancers drop it via Changed.
	// Zero keeps plain registrations that only explicit deregistration
	// removes.
	LeaseTTL time.Duration
}

// NewApp creates an application named name.
func NewApp(name string, opts Options) *App {
	a := &App{
		Name: name, Net: opts.Network, Registry: registry.New(),
		clientMW: opts.ClientMiddleware,
		rpcHook:  opts.RPCServerHook, restHook: opts.RESTServerHook,
		leaseTTL:  opts.LeaseTTL,
		instances: make(map[string][]*Instance),
		defined:   make(map[string]func(*rpc.Server)),
	}
	if a.Net == nil {
		a.Net = rpc.NewMem()
	}
	if !opts.DisableTracing {
		a.Traces = trace.NewStore()
		a.collector = trace.NewCollector(a.Traces, opts.TraceBuffer)
		a.Tracer = trace.NewTracer(a.collector)
	}
	if opts.Resilience != nil {
		a.Resilience = opts.Resilience
		if a.Resilience.Stats == nil {
			a.Resilience.Stats = &transport.Stats{}
		}
		if a.Resilience.Annotate == nil && a.Tracer != nil {
			a.Resilience.Annotate = trace.Annotate
		}
		a.Transport = a.Resilience.Stats
	}
	return a
}

// StartRPC boots one instance of an RPC microservice: register is called to
// install handlers, then the server starts listening and is entered into
// the registry. It returns the instance address.
func (a *App) StartRPC(service string, register func(*rpc.Server)) (string, error) {
	inst, err := a.startRPCInstance(service, nil, register)
	if err != nil {
		return "", err
	}
	return inst.Addr, nil
}

// Define records how to build a replica of a stateless service, so Spawn can
// start more of it at any time: every replica runs the same registration. A
// tier nobody defines — a store, a cache, a replica that carries its own
// identity or index shard — can never be cloned.
func (a *App) Define(service string, register func(*rpc.Server)) {
	a.mu.Lock()
	a.defined[service] = register
	a.mu.Unlock()
}

// Spawn starts one more replica of a service Define recorded and returns its
// address; with Stop it is the Spawner the control plane scales through.
func (a *App) Spawn(service string) (string, error) {
	a.mu.Lock()
	register, ok := a.defined[service]
	a.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("core: %q is not defined, so it cannot be spawned", service)
	}
	inst, err := a.startRPCInstance(service, nil, register)
	if err != nil {
		return "", err
	}
	a.mu.Lock()
	inst.spawned = true
	a.mu.Unlock()
	return inst.Addr, nil
}

// Stop stops a replica Spawn started: it deregisters first, so balancers stop
// routing to it, then drains and closes it. Any other replica is refused, so
// a tier never shrinks below what booted it outside Spawn.
func (a *App) Stop(service, addr string) error {
	var inst *Instance
	a.mu.Lock()
	for _, i := range a.instances[service] {
		if i.Addr == addr && i.spawned {
			inst, i.spawned = i, false
			break
		}
	}
	a.mu.Unlock()
	if inst == nil {
		return fmt.Errorf("core: %s replica %s was not spawned", service, addr)
	}
	return inst.Stop()
}

// Instance is a handle to one running replica started through the app. Stop
// deregisters it (so balancers stop routing to it) and then drains and
// closes the server — the shutdown order the control plane's scale-down
// path depends on. Kill simulates a crash: the replica stops heartbeating
// and goes silent while its registration lingers until lease expiry (or
// forever, without leases) — the failure mode the chaos experiment drives.
type Instance struct {
	Service string
	Addr    string

	srv     *rpc.Server
	once    sync.Once
	spawned bool // guarded by the App's mu; Stop clears it

	mu      sync.Mutex
	stopHB  func()
	release func()
}

// Stop removes the replica from discovery, then closes its server, waiting
// for in-flight requests. Safe to call more than once; the app's Close also
// closes the underlying server idempotently.
func (i *Instance) Stop() error {
	var err error
	i.once.Do(func() {
		i.mu.Lock()
		release := i.release
		i.mu.Unlock()
		release()
		err = i.srv.Close()
	})
	return err
}

// Kill crashes the replica without the courtesies of Stop: the heartbeat
// halts and the server hangs — connections stay up, requests are read and
// dropped, nothing deregisters. Only a health-lease expiry (Options.
// LeaseTTL) or a manual Deregister gets the corpse out of the serving set.
func (i *Instance) Kill() {
	i.mu.Lock()
	stop := i.stopHB
	i.mu.Unlock()
	stop()
	i.srv.Hang()
}

// StartRPCShard boots one replica of a sharded stateful service: like
// StartRPC, but the instance registers with its shard index as metadata
// (shard.MetaShard) so routing clients can group the service's replicas
// into replica sets. Every replica of every shard shares the one service
// name; only the metadata tells them apart.
func (a *App) StartRPCShard(service string, shardIdx int, register func(*rpc.Server)) (string, error) {
	meta := map[string]string{shard.MetaShard: strconv.Itoa(shardIdx)}
	inst, err := a.startRPCInstance(service, meta, register)
	if err != nil {
		return "", err
	}
	return inst.Addr, nil
}

func (a *App) startRPCInstance(service string, meta map[string]string, register func(*rpc.Server)) (*Instance, error) {
	srv := rpc.NewServer(service)
	if a.Tracer != nil {
		srv.Use(trace.ServerInterceptor(a.Tracer))
	}
	register(srv)
	if a.rpcHook != nil {
		a.rpcHook(service, srv)
	}
	addr, err := srv.Start(a.Net, a.instanceAddr(service))
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", service, err)
	}
	inst := &Instance{Service: service, Addr: addr, srv: srv}
	inst.stopHB, inst.release = a.enroll(service, addr, meta)
	a.mu.Lock()
	a.servers = append(a.servers, srv)
	a.instances[service] = append(a.instances[service], inst)
	a.mu.Unlock()
	// App.Close tears servers down directly; releasing here too stops the
	// heartbeat goroutine of instances nobody Stop()ed individually.
	a.track(closerFunc(func() error {
		inst.mu.Lock()
		release := inst.release
		inst.mu.Unlock()
		release()
		return nil
	}))
	return inst, nil
}

// Instances returns the replica handles started for a service, in start
// order (stopped ones included — callers pick by Addr against the registry).
func (a *App) Instances(service string) []*Instance {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Instance, len(a.instances[service]))
	copy(out, a.instances[service])
	return out
}

// enroll places an address into discovery, carrying instance metadata when
// the replica has any (shard indices). With LeaseTTL set it registers under
// a lease kept alive by a heartbeat goroutine; stopHB halts the heartbeat
// without deregistering (the crash path — eviction is the registry's job
// now), release additionally removes the address (the clean path). Without
// leases, stopHB is a no-op and release deregisters.
func (a *App) enroll(service, addr string, meta map[string]string) (stopHB, release func()) {
	if a.leaseTTL <= 0 {
		a.Registry.RegisterInstance(service, addr, meta)
		return func() {}, func() { a.Registry.Deregister(service, addr) }
	}
	lease := a.Registry.RegisterLease(service, addr, a.leaseTTL, meta)
	stop := make(chan struct{})
	var once sync.Once
	stopHB = func() { once.Do(func() { close(stop) }) }
	interval := a.leaseTTL / 3
	if interval <= 0 {
		interval = a.leaseTTL
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !lease.Renew() {
					return // evicted; only a restart brings the replica back
				}
			}
		}
	}()
	return stopHB, func() {
		stopHB()
		lease.Release()
	}
}

// StartREST boots one instance of a REST microservice, mirroring StartRPC.
func (a *App) StartREST(service string, register func(*rest.Server)) (string, error) {
	srv := rest.NewServer(service)
	if a.Tracer != nil {
		srv.Use(trace.RESTServerInterceptor(a.Tracer))
	}
	register(srv)
	if a.restHook != nil {
		a.restHook(service, srv)
	}
	addr, err := srv.Start(a.Net, a.instanceAddr(service))
	if err != nil {
		return "", fmt.Errorf("start %s: %w", service, err)
	}
	_, release := a.enroll(service, addr, nil)
	a.mu.Lock()
	a.rests = append(a.rests, srv)
	a.mu.Unlock()
	a.track(closerFunc(func() error { release(); return nil }))
	return addr, nil
}

// instanceAddr generates a unique listen address. The in-memory transport
// accepts any string; TCP callers should pass a Network that listens on
// 127.0.0.1 and would instead use port 0 — the Mem convention keeps
// addresses readable in traces and registry dumps.
func (a *App) instanceAddr(service string) string {
	// See through wrapping transports (the fault layer) to the concrete one.
	net := a.Net
	for {
		if _, isMem := net.(*rpc.Mem); isMem {
			// host:port shape keeps the address usable inside http URLs.
			return fmt.Sprintf("%s:%d", service, a.instance.Add(1))
		}
		u, ok := net.(interface{ Unwrap() rpc.Network })
		if !ok {
			return "127.0.0.1:0"
		}
		net = u.Unwrap()
	}
}

// clientNet returns the network clients of the named caller should dial
// through. A fault-injecting network (anything exposing Bind) is stamped
// with the caller's identity so directional rules — asymmetric partitions,
// per-pair resets — can tell who is dialing.
func (a *App) clientNet(caller string) rpc.Network {
	if b, ok := a.Net.(interface{ Bind(string) rpc.Network }); ok {
		return b.Bind(caller)
	}
	return a.Net
}

// faultMW returns the network's call-level fault middleware for the caller,
// when the app runs on a fault-injecting network.
func (a *App) faultMW(caller string) []transport.Middleware {
	if f, ok := a.Net.(interface {
		CallMiddleware(string) transport.Middleware
	}); ok {
		return []transport.Middleware{f.CallMiddleware(caller)}
	}
	return nil
}

// RPC returns a load-balanced, traced client from caller to every live
// instance of target. The replica set follows registry changes, so scaling
// target out or in — or losing a replica to lease expiry — redirects
// traffic without rewiring. The client's middleware chain composes around
// the round-robin pick, outermost first: tracing, app-wide client
// middleware, fault injection (when the network carries it), extra
// (per-wire middleware from the service config), and — when
// Options.Resilience is set — the deadline-budget → retry → hedge stack,
// with a circuit breaker per replica underneath the pick.
func (a *App) RPC(caller, target string, extra ...transport.Middleware) (*lb.Balanced, error) {
	mws, router, err := a.replicaSet(caller, target, false, extra)
	if err != nil {
		return nil, err
	}
	return lb.Over(router, mws...), nil
}

// ShardedRPC returns a shard router from caller to the sharded service
// target, for tiers whose replicas were started with StartRPCShard. It is
// the stateful-tier sibling of RPC: the same replica set and middleware,
// but routing is by key rather than round-robin, so the whole chain runs
// per replica, and fault injection moves *inside* the breaker — on a
// sharded tier a fault targets one replica address, and the breaker must
// time the injected slowness to eject that replica, not have the fault
// layer hide above it where every sibling would appear slow. Membership
// follows the registry, so lease eviction of a replica or a whole shard
// re-forms the ring.
func (a *App) ShardedRPC(caller, target string, extra ...transport.Middleware) (*shard.Router, error) {
	_, router, err := a.replicaSet(caller, target, true, extra)
	return router, err
}

// replicaSet builds the registry-following shard.Router every client from
// caller to target runs on, and the per-target chain RPC wraps around its
// pick. Outermost first, the chain is tracing, app-wide client middleware,
// fault injection, extra, and the resilience stack; under it each replica
// runs its own circuit breaker. A sharded router runs the chain per
// replica instead, with fault injection moved under the breaker.
func (a *App) replicaSet(caller, target string, sharded bool, extra []transport.Middleware) ([]transport.Middleware, *shard.Router, error) {
	instances := a.Registry.Instances(target)
	if len(instances) == 0 {
		return nil, nil, fmt.Errorf("registry: no instances of %q", target)
	}
	var mws []transport.Middleware
	if a.Tracer != nil {
		mws = append(mws, trace.ClientMiddleware(a.Tracer, caller))
	}
	mws = append(mws, a.clientMW...)
	fault := a.faultMW(caller)
	if !sharded {
		mws = append(mws, fault...)
	}
	mws = append(mws, extra...)
	mws = append(mws, a.Resilience.Stack()...)
	breakers := a.Resilience.BackendFactory()
	opts := []shard.Option{shard.WithReplicaMiddleware(breakers)}
	if sharded {
		opts = []shard.Option{
			shard.WithMiddleware(mws...),
			shard.WithReplicaMiddleware(func(addr string) []transport.Middleware {
				return append(breakers(addr), fault...)
			}),
		}
	}
	router := shard.NewRouter(a.clientNet(caller), target, opts...)
	router.Sync(instances)
	stop := make(chan struct{})
	go router.FollowRegistry(a.Registry, stop)
	a.track(closerFunc(func() error {
		close(stop)
		return router.Close()
	}))
	return mws, router, nil
}

// REST returns a traced REST client from caller to target (first live
// instance; REST front doors are singletons in the suite's apps).
func (a *App) REST(caller, target string) (*rest.Client, error) {
	addrs, err := a.Registry.MustLookup(target)
	if err != nil {
		return nil, err
	}
	var mws []transport.Middleware
	if a.Tracer != nil {
		mws = append(mws, trace.ClientMiddleware(a.Tracer, caller))
	}
	mws = append(mws, a.clientMW...)
	mws = append(mws, a.faultMW(caller)...)
	var opts []rest.ClientOption
	if len(mws) > 0 {
		opts = append(opts, rest.WithMiddleware(mws...))
	}
	c := rest.NewClient(a.clientNet(caller), target, addrs[0], opts...)
	a.track(c)
	return c, nil
}

// FlushTraces waits for all submitted spans to reach the trace store.
func (a *App) FlushTraces() {
	if a.collector != nil {
		a.collector.Flush()
	}
}

// track remembers a closer for Close.
func (a *App) track(c io.Closer) {
	a.mu.Lock()
	a.closers = append(a.closers, c)
	a.mu.Unlock()
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// Close shuts down every client and server started through the app and
// stops trace collection.
func (a *App) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	closers := a.closers
	servers := a.servers
	rests := a.rests
	a.mu.Unlock()

	for _, c := range closers {
		c.Close() //nolint:errcheck // best-effort teardown
	}
	for _, s := range servers {
		s.Close() //nolint:errcheck
	}
	for _, s := range rests {
		s.Close() //nolint:errcheck
	}
	if a.collector != nil {
		a.collector.Close()
	}
	return nil
}
