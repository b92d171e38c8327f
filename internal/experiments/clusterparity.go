package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dsb/internal/controlplane"
	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/loadgen"
	"dsb/internal/metrics"
	"dsb/internal/services/banking"
	"dsb/internal/services/ecommerce"
	"dsb/internal/services/media"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/services/swarm"
	"dsb/internal/transport"
)

// ClusterParity is the suite-scale version of Figs 17-19: all five
// applications boot on ONE registry with their stateful tiers sharded
// 2x2, share a fixed machine budget (every inter-tier hop occupies one of
// a small pool of cores for its service time), and serve a mixed-tenant
// open loop. A flash crowd then multiplies the Social Network's arrival
// rate past the whole machine's capacity while the other four tenants'
// offered load stays constant, and the experiment measures isolation: how
// much of the background tenants' good/offered survives the crowd.
//
// Two arms:
//
//	control plane on  — per-replica admission on every server (the crowd
//	                    tenant's front door gets a hard concurrency slice)
//	                    plus a latency-aware autoscaler on the crowd's hot
//	                    read tier. Excess crowd arrivals are shed at the
//	                    social front door before they can occupy the shared
//	                    machine, so the background tenants keep their slice.
//	control plane off — same apps, same machine, no admission and no
//	                    controller: the crowd's open-loop backlog queues on
//	                    the shared cores and every colocated tenant's tail
//	                    inflates with it (the paper's cascade).
func ClusterParity() *Report {
	r := &Report{
		ID:    "clusterparity",
		Title: "Mixed-tenant cluster: flash crowd on one tenant vs the other four (five live apps, shared machine)",
		Header: []string{"arm", "phase", "tenant", "offered (req/s)",
			"good/offered", "p99"},
	}
	arms := []struct {
		name  string
		plane bool
	}{
		{"control plane on", true},
		{"control plane off", false},
	}
	for _, arm := range arms {
		res, err := cpRun(arm.plane)
		if err != nil {
			r.Notes = append(r.Notes, arm.name+": boot: "+err.Error())
			continue
		}
		for _, ph := range []struct {
			name  string
			stats map[string]cpStat
		}{{"warm", res.warm}, {"flash crowd", res.crowd}} {
			for _, tenant := range cpTenantNames {
				st := ph.stats[tenant]
				r.Rows = append(r.Rows, []string{
					arm.name, ph.name, tenant,
					qpsStr(st.offered), f2(st.ratio), ms(st.p99),
				})
			}
		}
		worst, worstName := res.worstBackgroundRetention()
		note := fmt.Sprintf("%s: worst background-tenant good/offered retention %.2f (%s)",
			arm.name, worst, worstName)
		if arm.plane {
			note += fmt.Sprintf("; %d crowd requests shed at the social front door; readTimeline peaked at %d replicas",
				res.socialShed, res.timelinePeak)
		}
		r.Notes = append(r.Notes, note)
	}
	r.Notes = append(r.Notes,
		"retention = crowd-phase good/offered divided by the same tenant's warm-phase good/offered",
		"paper (Figs 17-19): heterogeneous apps share the cluster; without admission control one tenant's flash crowd queues on the shared machines and drags every colocated tenant's tail with it")
	return r
}

const (
	cpQoS     = 60 * time.Millisecond  // per-request latency target
	cpTimeout = 250 * time.Millisecond // client patience

	cpWarmDur  = 700 * time.Millisecond
	cpCrowdDur = 900 * time.Millisecond

	// Per-tenant offered load. The combined open loop thins arrivals by
	// weight, so during the crowd the background tenants keep this rate
	// while social's multiplies by cpCrowdWeight.
	cpTenantRate  = 36.0
	cpCrowdWeight = 25.0

	// The machine budget: every inter-tier hop of every app occupies one
	// of these cores for cpHopCost. 4 cores / 1ms = 4000 hops/s for the
	// whole cluster; the warm mix uses ~20% of it, the flash crowd alone
	// offers ~1.3x all of it.
	cpMachineCores = 4
	cpHopCost      = time.Millisecond
)

var cpTenantNames = [5]string{"social", "media", "ecommerce", "banking", "swarm"}

// cpTenant is one application's slice of the mixed workload: its hottest
// read, driven through the app's own front door.
type cpTenant struct {
	name string
	do   func(ctx context.Context) error
}

type cpStat struct {
	offered float64 // issued req/s
	ratio   float64 // good/offered: completed within QoS over issued
	p99     time.Duration
}

type cpArmResult struct {
	warm, crowd  map[string]cpStat
	socialShed   int64 // admission sheds at social.frontend (plane arm)
	timelinePeak int   // social.readTimeline replica peak (plane arm)
}

// worstBackgroundRetention returns the minimum over the four non-crowd
// tenants of crowd-phase good/offered relative to the warm phase.
func (res cpArmResult) worstBackgroundRetention() (float64, string) {
	worst, worstName := 1.0, "none"
	for _, tenant := range cpTenantNames {
		if tenant == "social" {
			continue
		}
		w, c := res.warm[tenant], res.crowd[tenant]
		if w.ratio <= 0 {
			return 0, tenant + " (no warm goodput)"
		}
		if ret := c.ratio / w.ratio; ret < worst {
			worst, worstName = ret, tenant
		}
	}
	return worst, worstName
}

// cpCluster is one booted arm: five apps on one registry plus the
// optional control plane.
type cpCluster struct {
	app     *core.App
	plane   *controlplane.Plane
	ctrl    *controlplane.Controller
	tenants []cpTenant
	closers []func()
}

func (c *cpCluster) Close() {
	if c.ctrl != nil {
		c.ctrl.Stop()
	}
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	if c.app != nil {
		c.app.Close()
	}
}

// cpRun boots one arm and drives both phases through it.
func cpRun(withPlane bool) (cpArmResult, error) {
	cl, err := cpBoot(withPlane)
	if err != nil {
		return cpArmResult{}, err
	}
	defer cl.Close()

	var res cpArmResult
	res.warm = cpPhase(cl.tenants, 1, cpWarmDur, 0xC1A5)
	res.crowd = cpPhase(cl.tenants, cpCrowdWeight, cpCrowdDur, 0xC1A7)

	if cl.plane != nil {
		for _, a := range cl.plane.Admissions("social.frontend") {
			res.socialShed += a.Report().Shed
		}
	}
	if cl.ctrl != nil {
		res.timelinePeak = len(cl.app.Registry.Lookup("social.readTimeline"))
		for _, n := range cl.ctrl.History("social.readTimeline") {
			if n > res.timelinePeak {
				res.timelinePeak = n
			}
		}
	}
	return res, nil
}

// cpPhase drives one open-loop mix phase: every tenant at cpTenantRate,
// social scaled by socialWeight. Goodput is classified per tenant against
// cpQoS from the caller's side.
func cpPhase(tenants []cpTenant, socialWeight float64, dur time.Duration, seed uint64) map[string]cpStat {
	type tally struct {
		mu           sync.Mutex
		issued, good int64
		lat          *metrics.Histogram
	}
	tallies := make(map[string]*tally, len(tenants))
	entries := make([]loadgen.MixEntry, 0, len(tenants))
	var combined float64
	for _, tn := range tenants {
		weight := 1.0
		if tn.name == "social" {
			weight = socialWeight
		}
		combined += weight * cpTenantRate
		tl := &tally{lat: metrics.NewHistogram()}
		tallies[tn.name] = tl
		do := tn.do
		entries = append(entries, loadgen.MixEntry{Name: tn.name, Weight: weight,
			Do: func(context.Context) error {
				ctx, cancel := context.WithTimeout(context.Background(), cpTimeout)
				defer cancel()
				t0 := time.Now()
				err := do(ctx)
				lat := time.Since(t0)
				tl.mu.Lock()
				tl.issued++
				if err == nil {
					tl.lat.RecordDuration(lat)
					if lat <= cpQoS {
						tl.good++
					}
				}
				tl.mu.Unlock()
				return err
			}})
	}
	mix := loadgen.NewMix(seed, entries...)
	loadgen.RunOpenLoop(context.Background(), loadgen.Schedule(loadgen.NewPoisson(combined, seed+1), dur), 0,
		func(ctx context.Context, _ loadgen.Arrival) error { return mix.Pick().Do(ctx) })

	out := make(map[string]cpStat, len(tallies))
	for name, tl := range tallies {
		st := cpStat{offered: float64(tl.issued) / dur.Seconds()}
		if tl.issued > 0 {
			st.ratio = float64(tl.good) / float64(tl.issued)
		}
		st.p99 = tl.lat.PercentileDuration(99)
		out[name] = st
	}
	return out
}

// cpBoot boots all five applications — stateful tiers sharded 2x2 — on
// one app/registry with the shared-machine middleware on every inter-tier
// wire, seeds each tenant's hot read, and (with the plane on) installs
// admission everywhere plus a latency-aware autoscaler on the crowd
// tenant's hot read tier.
func cpBoot(withPlane bool) (*cpCluster, error) {
	opts := core.Options{
		DisableTracing: true,
		Resilience: &transport.ResilienceConfig{
			Budget:  &transport.BudgetConfig{Fraction: 0.9},
			Retry:   &transport.RetryConfig{Attempts: 3},
			Breaker: &transport.BreakerConfig{Failures: 8, Cooldown: 200 * time.Millisecond},
		},
	}
	cl := &cpCluster{}
	if withPlane {
		cl.plane = controlplane.NewPlane(controlplane.PlaneConfig{
			// Every replica of every app gets the default guards (bounded
			// queue, CoDel, deadline budget); the crowd tenant's front
			// door additionally gets a hard concurrency slice of the
			// machine so its overload is shed at the cluster edge.
			PerService: map[string]controlplane.AdmissionConfig{
				"social.frontend":     {MaxConcurrent: 2, MaxQueue: 16},
				"social.readTimeline": {MaxConcurrent: 8, MaxQueue: 64},
			},
		})
		opts.RPCServerHook = cl.plane.HookRPC
		opts.RESTServerHook = cl.plane.HookREST
	}
	name := "clusterparity-static"
	if withPlane {
		name = "clusterparity-plane"
	}
	app := core.NewApp(name, opts)
	cl.app = app
	fail := func(err error) (*cpCluster, error) {
		cl.Close()
		return nil, err
	}

	// The shared machine: every inter-tier hop of every app (the middleware
	// rides each Stack's client wires) occupies one of cpMachineCores for
	// cpHopCost before the call proceeds. Queueing for a core is unbounded —
	// exactly the Fig 17 collapse channel when offered hops exceed capacity
	// — and waiters give up when their request deadline expires.
	mw := []transport.Middleware{fault.Capacity{Slots: cpMachineCores, ServiceTime: cpHopCost}.Middleware()}

	sn, err := socialnetwork.New(app, socialnetwork.Config{
		Shards: 2, ShardReplicas: 2, Middleware: mw,
	})
	if err != nil {
		return fail(fmt.Errorf("social: %w", err))
	}
	md, err := media.New(app, media.Config{
		Shards: 2, ShardReplicas: 2, Middleware: mw,
	})
	if err != nil {
		return fail(fmt.Errorf("media: %w", err))
	}
	ec, err := ecommerce.New(app, ecommerce.Config{
		Shards: 2, ShardReplicas: 2, Middleware: mw,
	})
	if err != nil {
		return fail(fmt.Errorf("ecommerce: %w", err))
	}
	cl.closers = append(cl.closers, ec.Close)
	bk, err := banking.New(app, banking.Config{
		Shards: 2, ShardReplicas: 2, Middleware: mw,
	})
	if err != nil {
		return fail(fmt.Errorf("banking: %w", err))
	}
	sw, err := swarm.New(app, swarm.Config{
		Placement: swarm.Edge, Drones: 1, WorldSize: 24, Seed: 7,
		WifiRTT: 200 * time.Microsecond,
		Shards:  2, ShardReplicas: 2, Middleware: mw,
	})
	if err != nil {
		return fail(fmt.Errorf("swarm: %w", err))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Social: one followed author with a short timeline; the flash crowd
	// reads the follower's home timeline.
	if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: "alice", Password: "pw"}, nil); err != nil {
		return fail(fmt.Errorf("social seed: %w", err))
	}
	var login socialnetwork.LoginResp
	if err := sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: "alice", Password: "pw"}, &login); err != nil {
		return fail(fmt.Errorf("social seed: %w", err))
	}
	if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: "f0", Password: "pw"}, nil); err != nil {
		return fail(fmt.Errorf("social seed: %w", err))
	}
	if err := sn.Graph.Call(ctx, "Follow", socialnetwork.FollowReq{Follower: "f0", Followee: "alice"}, nil); err != nil {
		return fail(fmt.Errorf("social seed: %w", err))
	}
	for i := 0; i < 5; i++ {
		if err := sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
			Token: login.Token, Text: fmt.Sprintf("flash crowd bait %d", i),
		}, nil); err != nil {
			return fail(fmt.Errorf("social seed: %w", err))
		}
	}

	// Media: one movie; the tenant reads its full page.
	if err := md.SeedMovie(media.Movie{ID: "mv-1", Title: "Heat", Year: 1995, Genre: "crime"},
		"a heist crew and a detective circle each other",
		[]media.CastMember{{MovieID: "mv-1", Actor: "A. Actor", Role: "lead"}}, nil); err != nil {
		return fail(fmt.Errorf("media seed: %w", err))
	}

	// E-commerce: one catalogue item; the tenant reads its page.
	if err := ec.SeedItems([]ecommerce.Item{{
		ID: "item-1", Name: "Socks", Tags: []string{"socks"},
		PriceCents: 500, WeightGram: 100, Stock: 100000,
	}}); err != nil {
		return fail(fmt.Errorf("ecommerce seed: %w", err))
	}

	// Banking: one customer; the tenant reads the account summary.
	bankToken, _, err := bk.Onboard("dana", 9_000_000, 120_000)
	if err != nil {
		return fail(fmt.Errorf("banking seed: %w", err))
	}

	// Swarm: the route query to a fixed target (deterministic pick:
	// smallest (Y, X) — map iteration order varies).
	var target swarm.Point
	first := true
	for p := range sw.World.Targets {
		if first || p.Y < target.Y || (p.Y == target.Y && p.X < target.X) {
			target = p
			first = false
		}
	}
	if first {
		return fail(fmt.Errorf("swarm seed: world has no targets"))
	}
	route, err := app.RPC("loadgen", "swarm.constructRoute")
	if err != nil {
		return fail(err)
	}

	cl.tenants = []cpTenant{
		{"social", func(ctx context.Context) error {
			return sn.Frontend.Do(ctx, "GET", "/timeline/f0", nil, nil)
		}},
		{"media", func(ctx context.Context) error {
			return md.Frontend.Do(ctx, "GET", "/movies/Heat", nil, nil)
		}},
		{"ecommerce", func(ctx context.Context) error {
			return ec.Frontend.Do(ctx, "GET", "/catalogue/item-1", nil, nil)
		}},
		{"banking", func(ctx context.Context) error {
			return bk.Frontend.Do(ctx, "GET", "/summary?token="+bankToken, nil, nil)
		}},
		{"swarm", func(ctx context.Context) error {
			return route.Call(ctx, "Construct", swarm.RouteReq{From: swarm.Point{X: 0, Y: 0}, To: target}, &swarm.RouteResp{})
		}},
	}

	if withPlane {
		cl.ctrl = controlplane.NewController(controlplane.ControllerConfig{
			Registry: app.Registry,
			Network:  app.Net,
			Spawner:  app,
			Policy:   controlplane.LatencyAware{QoS: cpQoS},
			Interval: 100 * time.Millisecond,
			Services: []controlplane.ManagedService{
				{Name: "social.readTimeline", Min: 1, Max: 4},
			},
		})
		cl.ctrl.Start()
	}
	return cl, nil
}
