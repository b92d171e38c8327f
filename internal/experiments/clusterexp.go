package experiments

import (
	"fmt"
	"time"

	"dsb/internal/cluster"
	"dsb/internal/graph"
	"dsb/internal/loadgen"
	"dsb/internal/metrics"
	"dsb/internal/sim"
)

// twoTier builds the Fig 17 nginx+memcached application.
func twoTier() *graph.App {
	p := map[string]graph.Profile{
		"nginx":     {Language: "C", Cycles: 600e3, CodeKB: 560, KernelFrac: 0.5, LibFrac: 0.2, MsgBytes: 2048, Workers: 4},
		"memcached": {Language: "C", Cycles: 120e3, FixedNs: 20e3, CodeKB: 420, KernelFrac: 0.6, LibFrac: 0.2, MsgBytes: 1024, Workers: 32},
	}
	root := &graph.Node{Service: "nginx", Work: 1, Calls: []graph.Call{
		{Stage: 0, Count: 1, Node: &graph.Node{Service: "memcached", Work: 1}},
	}}
	return &graph.App{Name: "two-tier", Profiles: p, Root: root, WireNs: graph.DatacenterWireNs}
}

// rampOpenLoop injects Poisson arrivals whose rate follows levels: each
// entry holds for stepDur.
func rampOpenLoop(d *sim.Deployment, levels []float64, stepDur time.Duration, seed uint64) {
	arr := loadgen.NewPoisson(1, seed)
	var tick func(idx int, qps float64, until time.Duration)
	tick = func(idx int, qps float64, until time.Duration) {
		if d.Sim.Now() >= until {
			if idx+1 < len(levels) {
				tick(idx+1, levels[idx+1], until+stepDur)
			}
			return
		}
		d.Inject(nil)
		gap := time.Duration(float64(arr.Next()) / qps) // Poisson(1) scaled
		d.Sim.After(gap, func() { tick(idx, qps, until) })
	}
	tick(0, levels[0], stepDur)
	total := stepDur * time.Duration(len(levels))
	d.Sim.Run(total)
	d.Sim.Drain(50_000_000)
}

// Fig17 contrasts the two backpressure cases in the two-tier app.
// Case A: the client ramp saturates nginx's CPU; the utilization
// autoscaler scales nginx out and tail latency recovers.
// Case B: memcached slows down (still CPU-idle thanks to its large pool)
// behind a small connection table; nginx workers block on connections, the
// autoscaler sees only nginx saturated, scales the wrong tier, and the
// tail never recovers.
func Fig17() *Report {
	return fig17(60*time.Second, 5*time.Second, 20*time.Second, 40*time.Second, 58*time.Second)
}

func fig17(dur time.Duration, samples ...time.Duration) *Report {
	r := &Report{
		ID:     "fig17",
		Title:  "Two-tier backpressure: autoscaling helps case A, not case B",
		Header: []string{"case", "t", "e2e p99", "nginx util", "memcached util", "nginx instances"},
	}
	run := func(label string, caseB bool) (before, after float64, scaled int) {
		cfg := sim.Config{App: twoTier(), Seed: 17}
		if caseB {
			cfg.ConnsPerInstance = map[string]int{"memcached": 6}
		}
		d, _ := sim.NewDeployment(sim.New(), cfg)
		mon := cluster.NewMonitor(d, time.Second)
		as := cluster.NewAutoscaler(d)
		as.Interval = 2 * time.Second
		as.StartupDelay = 3 * time.Second
		mon.Start(dur)
		as.Start(dur)

		var levels []float64
		if caseB {
			// Steady load above the connection-table capacity once
			// memcached slows 10x at t=14s; its 32-worker pool keeps CPU
			// utilization low throughout.
			for i := 0; i < int(dur/time.Second); i++ {
				levels = append(levels, 7000)
			}
			d.Sim.After(14*time.Second, func() { d.SetSlow("memcached", 0, 10) }) //nolint:errcheck
		} else {
			// Ramp that exceeds nginx CPU capacity (~9.5k QPS on 4 workers)
			// at t=14s and again at t=35s.
			for i := 0; i < int(dur/time.Second); i++ {
				switch {
				case i < 14:
					levels = append(levels, 6000)
				case i < 35:
					levels = append(levels, 11000)
				default:
					levels = append(levels, 16000)
				}
			}
		}
		rampOpenLoop(d, levels, time.Second, 17)

		for _, t := range samples {
			instances := 1
			for _, e := range as.Events {
				if e.Service == "nginx" && e.At <= t && e.Instances > instances {
					instances = e.Instances
				}
			}
			r.Rows = append(r.Rows, []string{
				label, fmt.Sprintf("%ds", int(t.Seconds())),
				fmt.Sprintf("%.2fms", mon.E2EP99.At(t)),
				f2(mon.Util["nginx"].At(t)),
				f2(mon.Util["memcached"].At(t)),
				fmt.Sprintf("%d", instances),
			})
		}
		nginxScaled := 1
		for _, e := range as.Events {
			if e.Service == "nginx" && e.Instances > nginxScaled {
				nginxScaled = e.Instances
			}
		}
		return mon.E2EP99.At(20 * time.Second), mon.E2EP99.At(samples[len(samples)-1]), nginxScaled
	}

	aPeak, aEnd, aScaled := run("A: nginx saturation", false)
	bPeak, bEnd, bScaled := run("B: memcached backpressure", true)
	r.Notes = append(r.Notes,
		fmt.Sprintf("case A: p99 %.2fms at t=20s -> %.2fms at t=%v after scaling nginx to %d (autoscaling works)", aPeak, aEnd, samples[len(samples)-1], aScaled),
		fmt.Sprintf("case B: p99 %.2fms at t=20s -> %.2fms at t=%v despite scaling nginx to %d (wrong tier; memcached stays CPU-idle)", bPeak, bEnd, samples[len(samples)-1], bScaled),
		"paper: utilization-driven autoscalers cannot see connection-level backpressure")
	return r
}

// socialAtScale builds a replicated Social Network deployment.
func socialAtScale(replicas int, seed uint64) *sim.Deployment {
	reps := map[string]int{}
	app := graph.SocialNetwork()
	for _, svc := range app.Services() {
		reps[svc] = replicas
	}
	d, _ := sim.NewDeployment(sim.New(), sim.Config{App: app, Replicas: reps, WorkerScale: 0.25, Seed: seed})
	return d
}

// propagationTimeline runs a back-end fault and samples per-tier latency
// (normalized to the pre-fault baseline) and utilization over time.
func propagationTimeline(d *sim.Deployment, faultAt, dur time.Duration, qps float64, fault func()) (*cluster.Monitor, map[string]*metrics.Series) {
	mon := cluster.NewMonitor(d, time.Second)
	mon.Start(dur)
	d.Sim.After(faultAt, fault)
	d.RunOpenLoop(qps, dur)
	return mon, mon.Lat
}

// Fig19 reproduces the cascading QoS violation heatmap: a degraded
// back-end (mongodb) drives tail latency up tier by tier toward the
// front-end, while per-tier utilization points at the wrong culprits.
func Fig19() *Report {
	r := &Report{
		ID:     "fig19",
		Title:  "Cascading QoS violations after a back-end slowdown (fault at t=60s)",
		Header: []string{"tier", "baseline p99", "peak p99 after fault", "increase", "first >2x at", "peak util"},
	}
	d := socialAtScale(2, 19)
	const dur = 180 * time.Second
	mon, lat := propagationTimeline(d, 60*time.Second, dur, 420, func() {
		d.SetSlow("mongodb", 0, 25) //nolint:errcheck
		d.SetSlow("mongodb", 1, 25) //nolint:errcheck
	})

	order := []string{"mongodb", "writeGraph", "writeTimeline", "postsStorage", "composePost", "nginx"}
	var firstCross []time.Duration
	for _, tier := range order {
		s := lat[tier]
		if s == nil {
			continue
		}
		base := s.At(55 * time.Second)
		if base <= 0 {
			base = 0.001
		}
		peak := s.Max()
		cross := time.Duration(0)
		for _, p := range s.Points {
			if p.T > 60*time.Second && p.V > 2*base {
				cross = p.T
				break
			}
		}
		firstCross = append(firstCross, cross)
		peakUtil := mon.Util[tier].Max()
		r.Rows = append(r.Rows, []string{
			tier, fmt.Sprintf("%.2fms", base), fmt.Sprintf("%.2fms", peak),
			fmt.Sprintf("%.1fx", peak/base),
			fmt.Sprintf("%ds", int(cross.Seconds())),
			f2(peakUtil),
		})
	}
	backFirst := len(firstCross) >= 2 && firstCross[0] > 0 && firstCross[len(firstCross)-1] >= firstCross[0]
	r.Notes = append(r.Notes,
		fmt.Sprintf("hotspot propagates from back-end toward front-end: %v", backFirst),
		"paper: saturated back-ends drag upstream tiers into violation; utilization alone misleads (blocked tiers look busy or idle regardless of blame)")
	return r
}

// Fig20 compares recovery from the same QoS violation for microservices vs
// the monolith, both under the threshold autoscaler.
func Fig20() *Report {
	r := &Report{
		ID:     "fig20",
		Title:  "Recovery from a QoS violation under autoscaling: microservices vs monolith",
		Header: []string{"architecture", "baseline p99", "peak p99", "degradation", "recovered at", "scale actions"},
	}
	const dur = 300 * time.Second
	const surgeAt = 60 * time.Second
	run := func(app *graph.App) (rowName string, cells []string) {
		d, _ := sim.NewDeployment(sim.New(), sim.Config{App: app, Seed: 20})
		// Tightly balanced provisioning for 400 QPS; the surge to 760 QPS
		// violates QoS until the autoscaler has grown the right tiers.
		d.BalanceWorkers(400, 1.15)
		mon := cluster.NewMonitor(d, time.Second)
		as := cluster.NewAutoscaler(d)
		as.Interval = 5 * time.Second
		as.StartupDelay = 15 * time.Second
		as.TopK = 1 // utilization-greedy, budget-limited scaling
		mon.Start(dur)
		as.Start(dur)

		levels := make([]float64, int(dur.Seconds()))
		for i := range levels {
			if time.Duration(i)*time.Second < surgeAt {
				levels[i] = 400
			} else {
				levels[i] = 760
			}
		}
		rampOpenLoop(d, levels, time.Second, 20)

		base := mon.E2EP99.At(55 * time.Second)
		peak := mon.E2EP99.Max()
		q := cluster.QoS{TargetMs: base * 2}
		rec, ok := q.RecoveryAfter(mon.E2EP99, surgeAt+time.Second, 5)
		recStr := "never"
		if ok {
			recStr = fmt.Sprintf("t=%ds (+%ds)", int(rec.Seconds()), int((rec - surgeAt).Seconds()))
		}
		return app.Name, []string{
			fmt.Sprintf("%.2fms", base), fmt.Sprintf("%.2fms", peak),
			fmt.Sprintf("%.1fx", peak/base), recStr, fmt.Sprintf("%d", len(as.Events)),
		}
	}

	microName, micro := run(graph.SocialNetwork())
	monoName, mono := run(graph.SocialNetworkMonolith())
	r.Rows = append(r.Rows, append([]string{microName}, micro...))
	r.Rows = append(r.Rows, append([]string{monoName}, mono...))
	r.Notes = append(r.Notes,
		"paper: one mismanaged dependency degrades Social Network tail by 10.4x; the monolith recovers quickly because new whole-app copies absorb load, while the autoscaler hunts for the culprit tier in the microservice graph")
	return r
}

// Fig22a reproduces the large-scale cascading hotspot: a routing
// misconfiguration at t=260s concentrates composePost and readPost traffic
// on single instances; later the back-end follows; rate limiting at t=500s
// lets queues drain.
func Fig22a() *Report {
	r := &Report{
		ID:     "fig22a",
		Title:  "Large-scale cascade from a routing misconfiguration (fault t=260s, back-end t=400s, rate-limit t=500s)",
		Header: []string{"t", "e2e p99", "composePost p99", "readPost p99", "mongodb p99", "nginx p99"},
	}
	d := socialAtScale(4, 22)
	const dur = 600 * time.Second
	mon := cluster.NewMonitor(d, 2*time.Second)
	mon.Start(dur)

	// Routing misconfiguration: from t=260s, most picks land on instance 0
	// of every replicated service instead of load-balancing.
	d.Sim.After(260*time.Second, func() { d.SetHotFraction(0.9) })
	d.Sim.After(400*time.Second, func() {
		d.SetSlow("mongodb", 0, 10) //nolint:errcheck
	})

	// Open loop with a rate limit kicking in at t=500s.
	arr := loadgen.NewPoisson(520, 22)
	var schedule func()
	schedule = func() {
		if d.Sim.Now() > dur {
			return
		}
		limited := d.Sim.Now() > 500*time.Second
		if !limited || d.Sim.Now()%2 == 0 { // crude 50% admission under limiting
			d.Inject(nil)
		}
		d.Sim.After(arr.Next(), schedule)
	}
	d.Sim.After(0, schedule)
	d.Sim.Run(dur)
	d.Sim.Drain(80_000_000)

	for _, t := range []time.Duration{100 * time.Second, 300 * time.Second, 450 * time.Second, 590 * time.Second} {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%ds", int(t.Seconds())),
			fmt.Sprintf("%.2fms", mon.E2EP99.At(t)),
			fmt.Sprintf("%.2fms", mon.Lat["composePost"].At(t)),
			fmt.Sprintf("%.2fms", mon.Lat["readPost"].At(t)),
			fmt.Sprintf("%.2fms", mon.Lat["mongodb"].At(t)),
			fmt.Sprintf("%.2fms", mon.Lat["nginx"].At(t)),
		})
	}
	r.Notes = append(r.Notes,
		"timeline sparkline (e2e p99): "+mon.E2EP99.Sparkline(60),
		"paper: mid-tier saturation cascades downstream, the later back-end fault re-degrades already-weak tiers, and rate limiting is what finally drains queues")
	return r
}
