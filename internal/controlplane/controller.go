package controlplane

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dsb/internal/registry"
	"dsb/internal/rpc"
)

// Spawner starts and stops live replicas of a service. A *core.App is one:
// it spawns the tiers its app Defined (svcutil.Stack.Start does so for every
// replicable tier) and stops only replicas it spawned; tests use fakes. Spawn
// must register the new replica in the registry before returning, and Stop
// must deregister before draining, so balancers follow within one watch.
type Spawner interface {
	Spawn(service string) (addr string, err error)
	Stop(service, addr string) error
}

// ManagedService is one tier the controller reconciles, with its replica
// bounds.
type ManagedService struct {
	Name string
	Min  int // floor (default 1)
	Max  int // ceiling (default 16)
}

func (m ManagedService) bounds() (int, int) {
	lo, hi := m.Min, m.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = 16
		if hi < lo {
			hi = lo
		}
	}
	return lo, hi
}

// fetchTimeout bounds each replica report probe.
const fetchTimeout = 50 * time.Millisecond

// ControllerConfig wires a Controller.
type ControllerConfig struct {
	Registry *registry.Registry
	Network  rpc.Network
	Spawner  Spawner
	Policy   Policy
	Services []ManagedService
	// Interval is the reconcile period (default 250ms).
	Interval time.Duration

	// fetch overrides the report probe in tests.
	fetch func(ctx context.Context, service, addr string) (LoadReport, error)
}

// Decision records one reconcile action (or deliberate hold) for a service.
type Decision struct {
	Service string
	From    int
	To      int
	Reason  string
}

// Controller is the reconcile loop: each tick it polls every managed
// service's replicas for load reports, aggregates them, asks the policy for
// a desired count, and closes the gap through the Spawner. Replica
// membership changes flow through the registry, so balancers re-resolve on
// their own.
type Controller struct {
	cfg ControllerConfig

	mu      sync.Mutex
	clients map[string]*rpc.Client // report probes, keyed service+addr
	history map[string][]int       // replica count per tick, per service

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewController builds a controller; Start begins reconciling.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	c := &Controller{
		cfg:     cfg,
		clients: make(map[string]*rpc.Client),
		history: make(map[string][]int),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if c.cfg.fetch == nil {
		c.cfg.fetch = c.fetchReport
	}
	return c
}

// Start launches the reconcile loop in its own goroutine.
func (c *Controller) Start() {
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.Tick()
			}
		}
	}()
}

// Stop halts the loop and waits for the in-flight tick to finish, then
// closes the report-probe clients. Replicas keep running: shutting the
// deployment down is the app's job, not the autoscaler's.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.mu.Lock()
		for _, cl := range c.clients {
			cl.Close() //nolint:errcheck // best-effort teardown
		}
		c.clients = make(map[string]*rpc.Client)
		c.mu.Unlock()
	})
}

// Tick runs one reconcile pass over every managed service and returns the
// decisions taken. Exported so experiments and tests can drive reconciling
// deterministically instead of racing the wall-clock loop.
func (c *Controller) Tick() []Decision {
	ctx := context.Background()
	decisions := make([]Decision, 0, len(c.cfg.Services))
	for _, ms := range c.cfg.Services {
		decisions = append(decisions, c.reconcile(ctx, ms))
	}
	return decisions
}

func (c *Controller) reconcile(ctx context.Context, ms ManagedService) Decision {
	addrs := c.cfg.Registry.Lookup(ms.Name)
	have := len(addrs)
	c.recordHistory(ms.Name, have)

	reports := make([]LoadReport, 0, len(addrs))
	for _, addr := range addrs {
		r, err := c.cfg.fetch(ctx, ms.Name, addr)
		if err != nil {
			continue // a mute replica contributes no signal this pass
		}
		r.Service, r.Addr = ms.Name, addr
		reports = append(reports, r)
	}

	agg := AggregateReports(ms.Name, have, reports)
	want := c.cfg.Policy.Desired(agg)
	lo, hi := ms.bounds()
	if want < lo {
		want = lo
	}
	if want > hi {
		want = hi
	}
	if have == 0 {
		// Nothing registered: the tier isn't controller-spawned yet (or was
		// torn down). Spawning from zero without a template is not ours to
		// guess; hold and report.
		return Decision{Service: ms.Name, From: 0, To: 0, Reason: "no live replicas"}
	}
	if want == have {
		return Decision{Service: ms.Name, From: have, To: have, Reason: "steady"}
	}

	if want > have {
		for i := have; i < want; i++ {
			if _, err := c.cfg.Spawner.Spawn(ms.Name); err != nil {
				return Decision{Service: ms.Name, From: have, To: i,
					Reason: fmt.Sprintf("scale-up stopped: %v", err)}
			}
		}
		return Decision{Service: ms.Name, From: have, To: want,
			Reason: fmt.Sprintf("%s: scale up", c.cfg.Policy.Name())}
	}

	// Scale down: stop the highest-sorted addresses — newest first under
	// the app's sequential instance naming — so the tier's founding
	// replicas (whose clients other tiers may have cached outside the
	// balancer) go last.
	victims := append([]string(nil), addrs...)
	sort.Sort(sort.Reverse(sort.StringSlice(victims)))
	for _, addr := range victims[:have-want] {
		if err := c.cfg.Spawner.Stop(ms.Name, addr); err != nil {
			return Decision{Service: ms.Name, From: have, To: have,
				Reason: fmt.Sprintf("scale-down stopped: %v", err)}
		}
		c.dropClient(ms.Name, addr)
	}
	return Decision{Service: ms.Name, From: have, To: want,
		Reason: fmt.Sprintf("%s: scale down", c.cfg.Policy.Name())}
}

// fetchReport probes one replica over a cached direct client.
func (c *Controller) fetchReport(ctx context.Context, service, addr string) (LoadReport, error) {
	key := service + "|" + addr
	c.mu.Lock()
	cl, ok := c.clients[key]
	if !ok {
		cl = rpc.NewClient(c.cfg.Network, service, addr)
		c.clients[key] = cl
	}
	c.mu.Unlock()
	return FetchReport(ctx, cl, fetchTimeout)
}

func (c *Controller) dropClient(service, addr string) {
	key := service + "|" + addr
	c.mu.Lock()
	if cl, ok := c.clients[key]; ok {
		delete(c.clients, key)
		cl.Close() //nolint:errcheck
	}
	c.mu.Unlock()
}

func (c *Controller) recordHistory(service string, replicas int) {
	c.mu.Lock()
	c.history[service] = append(c.history[service], replicas)
	c.mu.Unlock()
}

// History returns the replica count observed at each tick for a service —
// the experiment's scaling timeline.
func (c *Controller) History(service string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.history[service]...)
}
