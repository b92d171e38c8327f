package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"dsb/internal/archsim"
	"dsb/internal/graph"
	"dsb/internal/loadgen"
	"dsb/internal/metrics"
)

// localWireNs is the IPC-ish hop between colocated edge services.
const localWireNs = 1e3

// Config describes a simulated deployment of one application.
type Config struct {
	App      *graph.App
	Platform archsim.Platform
	Net      archsim.Network
	// Replicas gives instances per service (default 1).
	Replicas map[string]int
	// EdgeServices marks services placed on edge-class machines (Swarm);
	// they run on EdgePlatform and reach cloud services across the app's
	// wire (wifi), while edge↔edge and cloud↔cloud hops use localWireNs
	// and the datacenter wire respectively.
	EdgeServices map[string]bool
	EdgePlatform archsim.Platform
	// ClientEdge places the workload source on the edge side (a drone).
	ClientEdge bool
	// WorkerScale multiplies every profile's worker pool (min 1 worker);
	// experiments use fractions to provision saturation at the QPS scales
	// the paper's figures sweep.
	WorkerScale float64
	// HotFraction routes this share of picks to instance 0 of every
	// replicated service, modeling request skew concentrating load on hot
	// shards (Fig 22b). 0 = round robin.
	HotFraction float64
	// ConnsPerInstance caps concurrent in-flight requests per instance of
	// the named services — HTTP/1's one-outstanding-request-per-connection
	// blocking (Fig 17 case B). A caller waits (holding its own worker!)
	// until a connection frees, so a slow but CPU-idle backend backpressures
	// its callers.
	ConnsPerInstance map[string]int
	Seed             uint64
}

// Service is the simulated view of one microservice.
type Service struct {
	Name      string
	Prof      graph.Profile
	Instances []*Instance
	rr        int

	// Resid records full per-invocation residence (queueing + processing +
	// downstream) since deployment start; Window is reset by Sample.
	Resid  *metrics.Histogram
	Window *metrics.Histogram
	// NetResid records per-invocation time in this service's NIC (both
	// directions, queueing included) — the per-tier TCP processing time of
	// Fig 15a.
	NetResid *metrics.Histogram
}

// Instance is one running copy of a service on its own machine.
type Instance struct {
	Proc *Station
	NIC  *Station
	// Conns, when non-nil, bounds concurrent exchanges with this instance
	// (connection-table limit); callers block holding their own workers.
	Conns *Station
	Plat  archsim.Platform
	Slow  float64 // time multiplier; 1 = nominal, >1 = degraded machine
	Edge  bool
}

// Deployment is a bootable simulated cluster for one app.
type Deployment struct {
	Sim *Sim
	cfg Config

	services map[string]*Service
	order    []string

	clientNIC  *Station
	clientPlat archsim.Platform
	clientEdge bool
	rng        *rand.Rand

	// E2E collects end-to-end latencies; NetNs/TotalNs accumulate the
	// network share; Issued/Completed count requests.
	E2E       *metrics.Histogram
	WindowE2E *metrics.Histogram
	NetNs     float64 // kernel NIC residence (offloadable)
	WireTotNs float64 // propagation (not offloadable)
	TotalNs   float64
	Issued    int64
	Completed int64
	// GoodTarget, when set, makes GoodCount tally completions within it —
	// per-request goodput, the Fig 22 metric.
	GoodTarget time.Duration
	GoodCount  int64
}

// NewDeployment builds the cluster: one machine per instance, each with a
// worker pool sized from the profile and a 2-queue NIC.
func NewDeployment(s *Sim, cfg Config) (*Deployment, error) {
	if err := cfg.App.Validate(); err != nil {
		return nil, err
	}
	if cfg.Platform.FreqGHz <= 0 {
		cfg.Platform = archsim.XeonPlatform
	}
	if cfg.Net.PerMsgCycles == 0 {
		cfg.Net = archsim.DefaultNetwork
	}
	d := &Deployment{
		Sim:        s,
		cfg:        cfg,
		services:   make(map[string]*Service),
		E2E:        metrics.NewHistogram(),
		WindowE2E:  metrics.NewHistogram(),
		clientPlat: cfg.Platform,
		clientEdge: cfg.ClientEdge,
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x51B)),
	}
	if cfg.ClientEdge && cfg.EdgePlatform.FreqGHz > 0 {
		d.clientPlat = cfg.EdgePlatform
	}
	d.clientNIC = NewStation(s, "client/nic", 8)
	for _, name := range cfg.App.Services() {
		prof := cfg.App.Profiles[name]
		svc := &Service{Name: name, Prof: prof, Resid: metrics.NewHistogram(), Window: metrics.NewHistogram(), NetResid: metrics.NewHistogram()}
		replicas := cfg.Replicas[name]
		if replicas < 1 {
			replicas = 1
		}
		for i := 0; i < replicas; i++ {
			svc.Instances = append(svc.Instances, d.newInstance(name, i, prof))
		}
		d.services[name] = svc
		d.order = append(d.order, name)
	}
	return d, nil
}

func (d *Deployment) newInstance(name string, idx int, prof graph.Profile) *Instance {
	plat := d.cfg.Platform
	edge := d.cfg.EdgeServices[name]
	if edge && d.cfg.EdgePlatform.FreqGHz > 0 {
		plat = d.cfg.EdgePlatform
	}
	workers := prof.Workers
	if d.cfg.WorkerScale > 0 {
		workers = int(float64(workers) * d.cfg.WorkerScale)
		if workers < 1 {
			workers = 1
		}
	}
	in := &Instance{
		Proc: NewStation(d.Sim, fmt.Sprintf("%s/%d", name, idx), workers),
		NIC:  NewStation(d.Sim, fmt.Sprintf("%s/%d/nic", name, idx), 2),
		Plat: plat,
		Slow: 1,
		Edge: edge,
	}
	if limit := d.cfg.ConnsPerInstance[name]; limit > 0 {
		in.Conns = NewStation(d.Sim, fmt.Sprintf("%s/%d/conns", name, idx), limit)
	}
	return in
}

// Service returns the named service's simulated state.
func (d *Deployment) Service(name string) *Service { return d.services[name] }

// Services returns service names in workflow order.
func (d *Deployment) Services() []string { return d.order }

// AddInstance scales a service out by one instance (autoscaling). The new
// instance inherits the current pool size of the service's first instance,
// so balanced provisioning survives scale-out.
func (d *Deployment) AddInstance(name string) {
	svc := d.services[name]
	if svc == nil {
		return
	}
	in := d.newInstance(name, len(svc.Instances), svc.Prof)
	in.Proc.SetWorkers(svc.Instances[0].Proc.Workers())
	svc.Instances = append(svc.Instances, in)
}

// BalanceWorkers implements the paper's Section 3.8 provisioning: size
// every service's worker pool so all tiers saturate at about the same
// offered load. Worker demand per tier is its expected busy (hold) time
// per end-to-end request — own service time plus the downstream chain the
// worker blocks on — times the target QPS, padded by headroom.
func (d *Deployment) BalanceWorkers(targetQPS, headroom float64) {
	if headroom < 1 {
		headroom = 1
	}
	// Provisioning is a design-time decision made at nominal hardware, so
	// demand is computed on the nominal Xeon regardless of the platform the
	// experiment then runs (frequency scaling keeps the fleet fixed).
	nominal := archsim.XeonPlatform
	demandNs := make(map[string]float64, len(d.services))
	var hold func(node *graph.Node, mult float64) float64
	hold = func(node *graph.Node, mult float64) float64 {
		svc := d.services[node.Service]
		inst := svc.Instances[0]
		own := archsim.ServiceTimeNs(svc.Prof, node.Work, nominal)
		stageMax := map[int]float64{}
		for _, c := range node.Calls {
			callee := d.services[c.Node.Service]
			hop := 4*d.cfg.Net.ProcNs(callee.Prof.MsgBytes, nominal.FreqGHz) + 2*d.wireNs(inst.Edge, callee.Instances[0].Edge)
			t := float64(c.Count) * (hop + hold(c.Node, mult*float64(c.Count)))
			if t > stageMax[c.Stage] {
				stageMax[c.Stage] = t
			}
		}
		var children float64
		for _, t := range stageMax {
			children += t
		}
		total := own + children
		demandNs[node.Service] += total * mult
		return total
	}
	hold(d.cfg.App.Root, 1)
	for name, svc := range d.services {
		needed := int(targetQPS*demandNs[name]/1e9*headroom) + 1
		per := needed / len(svc.Instances)
		if per < 1 {
			per = 1
		}
		for _, in := range svc.Instances {
			in.Proc.SetWorkers(per)
		}
	}
}

// SetHotFraction changes the skew routing knob at runtime — the Fig 22a
// routing-misconfiguration injection that concentrates traffic on one
// instance per service.
func (d *Deployment) SetHotFraction(f float64) { d.cfg.HotFraction = f }

// SetSlow degrades (or restores) one instance of a service by a time
// multiplier — the slow-server and power-management injections.
func (d *Deployment) SetSlow(name string, idx int, factor float64) error {
	svc := d.services[name]
	if svc == nil || idx < 0 || idx >= len(svc.Instances) {
		return fmt.Errorf("sim: no instance %s[%d]", name, idx)
	}
	if factor < 0.01 {
		factor = 0.01
	}
	svc.Instances[idx].Slow = factor
	return nil
}

func (d *Deployment) pick(svc *Service) *Instance {
	if len(svc.Instances) > 1 && d.cfg.HotFraction > 0 {
		if d.rng.Float64() < d.cfg.HotFraction {
			return svc.Instances[0]
		}
		// Spread the remainder over the non-hot instances.
		return svc.Instances[1+d.rng.IntN(len(svc.Instances)-1)]
	}
	svc.rr++
	return svc.Instances[svc.rr%len(svc.Instances)]
}

// reqCtx tracks one end-to-end request.
type reqCtx struct {
	start  time.Duration
	netNs  float64 // kernel NIC residence
	wireNs float64 // propagation
}

// wireNs returns the propagation delay between two placement domains.
func (d *Deployment) wireNs(fromEdge, toEdge bool) float64 {
	if fromEdge != toEdge {
		return d.cfg.App.WireNs
	}
	if fromEdge {
		return localWireNs
	}
	// Cloud-to-cloud always rides the datacenter fabric, even when the
	// app's client hop is wifi.
	if d.cfg.App.WireNs > graph.DatacenterWireNs {
		return graph.DatacenterWireNs
	}
	return d.cfg.App.WireNs
}

// nicUse runs a message through a NIC station, charging actual residence
// (queueing included) to the request's network time.
func (d *Deployment) nicUse(rc *reqCtx, nic *Station, procNs float64, then func()) {
	entered := d.Sim.Now()
	nic.Use(time.Duration(procNs), func() {
		rc.netNs += float64(d.Sim.Now() - entered)
		then()
	})
}

// call executes one workflow node from a caller's machine and runs done
// when the reply lands back at the caller.
func (d *Deployment) call(rc *reqCtx, fromNIC *Station, fromPlat archsim.Platform, fromSlow float64, fromEdge bool, node *graph.Node, done func()) {
	svc := d.services[node.Service]
	inst := d.pick(svc)
	msg := svc.Prof.MsgBytes
	wire := time.Duration(d.wireNs(fromEdge, inst.Edge))

	sendNs := d.cfg.Net.ProcNs(msg, fromPlat.FreqGHz) * fromSlow
	recvNs := d.cfg.Net.ProcNs(msg, inst.Plat.FreqGHz) * inst.Slow

	// invNetNs tracks this invocation's time in the callee's NIC for the
	// per-tier TCP-processing breakdown.
	var invNetNs float64
	calleeNIC := func(procNs float64, then func()) {
		entered := d.Sim.Now()
		inst.NIC.Use(time.Duration(procNs), func() {
			delta := float64(d.Sim.Now() - entered)
			rc.netNs += delta
			invNetNs += delta
			then()
		})
	}

	// The server-side exchange, optionally gated by the callee's
	// connection table.
	exchange := func(connRelease func()) {
		calleeNIC(recvNs, func() {
			arrived := d.Sim.Now()
			inst.Proc.Acquire(func(release func()) {
				serviceNs := archsim.ServiceTimeNs(svc.Prof, node.Work, inst.Plat) * inst.Slow
				d.Sim.After(time.Duration(serviceNs), func() {
					d.runStages(rc, inst, node, func() {
						release()
						resid := d.Sim.Now() - arrived
						svc.Resid.RecordDuration(resid)
						svc.Window.RecordDuration(resid)
						// Reply path.
						calleeNIC(recvNs, func() {
							svc.NetResid.Record(int64(invNetNs))
							if connRelease != nil {
								connRelease()
							}
							rc.wireNs += float64(wire)
							d.Sim.After(wire, func() {
								d.nicUse(rc, fromNIC, sendNs, done)
							})
						})
					})
				})
			})
		})
	}

	d.nicUse(rc, fromNIC, sendNs, func() {
		rc.wireNs += float64(wire)
		d.Sim.After(wire, func() {
			if inst.Conns != nil {
				inst.Conns.Acquire(func(release func()) { exchange(release) })
			} else {
				exchange(nil)
			}
		})
	})
}

// runStages executes a node's downstream calls: stages sequentially, calls
// within a stage in parallel, repetitions within a call sequentially.
func (d *Deployment) runStages(rc *reqCtx, inst *Instance, node *graph.Node, done func()) {
	if len(node.Calls) == 0 {
		done()
		return
	}
	// Group by stage.
	stages := map[int][]graph.Call{}
	var keys []int
	for _, c := range node.Calls {
		if _, ok := stages[c.Stage]; !ok {
			keys = append(keys, c.Stage)
		}
		stages[c.Stage] = append(stages[c.Stage], c)
	}
	sort.Ints(keys)

	var runStage func(k int)
	runStage = func(k int) {
		if k >= len(keys) {
			done()
			return
		}
		calls := stages[keys[k]]
		pending := len(calls)
		for _, c := range calls {
			c := c
			var repeat func(i int)
			repeat = func(i int) {
				if i >= c.Count {
					pending--
					if pending == 0 {
						runStage(k + 1)
					}
					return
				}
				d.call(rc, inst.NIC, inst.Plat, inst.Slow, inst.Edge, c.Node, func() { repeat(i + 1) })
			}
			repeat(0)
		}
	}
	runStage(0)
}

// Inject starts one end-to-end request now; onDone (optional) receives the
// latency and its network component.
func (d *Deployment) Inject(onDone func(lat time.Duration, netNs float64)) {
	d.Issued++
	rc := &reqCtx{start: d.Sim.Now()}
	d.call(rc, d.clientNIC, d.clientPlat, 1, d.clientEdge, d.cfg.App.Root, func() {
		lat := d.Sim.Now() - rc.start
		d.Completed++
		if d.GoodTarget > 0 && lat <= d.GoodTarget {
			d.GoodCount++
		}
		d.E2E.RecordDuration(lat)
		d.WindowE2E.RecordDuration(lat)
		d.NetNs += rc.netNs
		d.WireTotNs += rc.wireNs
		d.TotalNs += float64(lat)
		if onDone != nil {
			onDone(lat, rc.netNs)
		}
	})
}

// NetworkFraction returns the average share of end-to-end latency spent in
// network processing (kernel NIC residence + wire) so far.
func (d *Deployment) NetworkFraction() float64 {
	if d.TotalNs == 0 {
		return 0
	}
	return (d.NetNs + d.WireTotNs) / d.TotalNs
}

// Utilization returns a service's mean worker utilization across instances
// for the current sample window.
func (svc *Service) Utilization() float64 {
	var sum float64
	for _, in := range svc.Instances {
		sum += in.Proc.Utilization()
	}
	return sum / float64(len(svc.Instances))
}

// SampleReset starts a new sampling window for every station and windowed
// histogram.
func (d *Deployment) SampleReset() {
	for _, name := range d.order {
		svc := d.services[name]
		for _, in := range svc.Instances {
			in.Proc.SampleReset()
			in.NIC.SampleReset()
		}
		svc.Window.Reset()
	}
	d.clientNIC.SampleReset()
	d.WindowE2E.Reset()
}

// Result summarizes an open-loop run.
type Result struct {
	QPS        float64
	Issued     int64
	Completed  int64
	E2E        metrics.Snapshot
	NetFrac    float64
	PerService map[string]metrics.Snapshot
}

// Goodput returns completed requests per second of simulated time.
func (r Result) Goodput(dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(r.Completed) / dur.Seconds()
}

// RunOpenLoop drives the deployment with Poisson arrivals at qps for dur
// of virtual time, then drains in-flight requests (bounded) and reports.
func (d *Deployment) RunOpenLoop(qps float64, dur time.Duration) Result {
	arrivals := loadgen.NewPoisson(qps, d.cfg.Seed+1)
	until := d.Sim.Now() + dur
	var schedule func(at time.Duration)
	schedule = func(at time.Duration) {
		if at > until {
			return
		}
		d.Sim.After(at-d.Sim.Now(), func() {
			d.Inject(nil)
			schedule(d.Sim.Now() + arrivals.Next())
		})
	}
	schedule(d.Sim.Now() + arrivals.Next())
	d.Sim.Run(until)
	// Drain stragglers so tail latencies of queued requests are counted.
	d.Sim.Drain(50_000_000)

	res := Result{
		QPS:        qps,
		Issued:     d.Issued,
		Completed:  d.Completed,
		E2E:        d.E2E.Snapshot(),
		NetFrac:    d.NetworkFraction(),
		PerService: make(map[string]metrics.Snapshot, len(d.order)),
	}
	for _, name := range d.order {
		res.PerService[name] = d.services[name].Resid.Snapshot()
	}
	return res
}
