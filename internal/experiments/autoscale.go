package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dsb/internal/controlplane"
	"dsb/internal/core"
	"dsb/internal/loadgen"
	"dsb/internal/metrics"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// AutoscaleLive drives a three-tier Social-Network-shaped deployment
// (REST front door → compose tier → text tier) through a load ramp that
// overruns the static capacity of the compose tier, and compares four
// configurations:
//
//	static, no admission  — fixed replicas, bounded workers, unbounded
//	                        queues: the paper's Fig 17 backpressure collapse
//	static + admission    — same replicas guarded by the control plane's
//	                        admission (bounded queue, CoDel, deadline
//	                        budget): goodput capped at capacity but served
//	                        requests stay inside QoS
//	autoscale threshold   — the classic utilization-threshold autoscaler,
//	                        one replica per reconcile pass
//	autoscale latency-aware — the queue/latency-aware policy sizing its jump
//	                        from measured demand and scaling only tiers that
//	                        are locally congested (avoiding Fig 18's
//	                        upstream mis-scale)
//
// Load is open-loop (non-homogeneous Poisson over a linear ramp), so a
// struggling deployment faces the full offered rate rather than a
// self-throttling closed loop. Goodput counts replies inside the QoS
// target, classified by the phase the request was issued in.
func AutoscaleLive() *Report {
	r := &Report{
		ID:    "autoscale-live",
		Title: "Load ramp vs static, admission-controlled, and autoscaled deployments (live stack)",
		Header: []string{"config", "phase", "offered (req/s)", "goodput (req/s)",
			"good/offered", "p99", "compose replicas"},
	}

	for _, cfg := range aslConfigs {
		res := runAutoscale(cfg)
		for i, ph := range res.phases {
			r.Rows = append(r.Rows, []string{
				cfg.name, aslPhaseNames[i],
				qpsStr(ph.offered), qpsStr(ph.goodput), f2(ph.ratio), ms(ph.p99),
				fmt.Sprintf("%d", ph.composeReplicas),
			})
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%s: compose ended at %d replicas (peak %d), text at %d; %d requests shed at compose",
			cfg.name, res.composeEnd, res.composePeak, res.textEnd, res.composeShed))
	}
	r.Notes = append(r.Notes,
		"no admission: the overloaded tier queues without bound; every queued request times out client-side (Fig 17)",
		"admission: sheds keep served requests inside QoS, so goodput tracks static capacity instead of collapsing",
		"latency-aware: scales compose straight to measured demand on its own congestion signals and leaves the uncongested text tier alone")
	return r
}

const (
	aslQoS     = 60 * time.Millisecond
	aslTimeout = 250 * time.Millisecond // client patience; QoS violations surface as latency, not errors

	aslWarm  = 700 * time.Millisecond
	aslRise  = 600 * time.Millisecond
	aslPeakD = 1000 * time.Millisecond

	aslBaseRate = 500.0 // req/s during warmup
	aslPeakMult = 5.2   // ramps to 2600 req/s, ~1.4× static compose capacity

	composeWorkers = 4
	composeWork    = 3 * time.Millisecond // plus the downstream text call
	textWorkers    = 8
	textWork       = time.Millisecond
)

var aslPhaseNames = [3]string{"warm", "ramp", "overload"}

var aslConfigs = []aslConfig{
	{name: "static, no admission"},
	{name: "static + admission", admission: true},
	{name: "autoscale threshold", admission: true,
		policy: controlplane.UtilizationThreshold{Up: 0.75, Down: 0.2}},
	{name: "autoscale latency-aware", admission: true,
		policy: controlplane.LatencyAware{QoS: aslQoS}},
}

type aslConfig struct {
	name      string
	admission bool
	policy    controlplane.Policy // nil = static
}

type aslPhaseResult struct {
	offered, goodput, ratio float64
	p99                     time.Duration
	composeReplicas         int // at phase end
}

type aslResult struct {
	phases                  [3]aslPhaseResult
	composeEnd, composePeak int
	textEnd                 int
	composeShed             int64
}

type aslPhaseStats struct {
	issued, good int64
	lat          *metrics.Histogram
}

// runAutoscale boots one configuration and drives the ramp through it.
func runAutoscale(cfg aslConfig) aslResult {
	opts := core.Options{
		DisableTracing: true,
		Resilience: &transport.ResilienceConfig{
			Budget: &transport.BudgetConfig{Fraction: 0.9},
			// Overload sheds are retryable at another replica without
			// consuming the failure budget; real failures still do.
			Retry:   &transport.RetryConfig{Attempts: 3},
			Breaker: &transport.BreakerConfig{Failures: 8, Cooldown: 200 * time.Millisecond},
		},
	}
	var plane *controlplane.Plane
	if cfg.admission {
		plane = controlplane.NewPlane(controlplane.PlaneConfig{
			PerService: map[string]controlplane.AdmissionConfig{
				"asl.compose": {MaxConcurrent: composeWorkers, MaxQueue: 32},
				"asl.text":    {MaxConcurrent: textWorkers, MaxQueue: 64},
			},
		})
		opts.RPCServerHook = plane.HookRPC
		opts.RESTServerHook = plane.HookREST
	}
	app := core.NewApp("autoscale", opts)
	defer app.Close()

	// Without admission the worker bound is a semaphore around the handler,
	// with an unbounded queue in front — the collapse configuration.
	bound := func(s *rpc.Server, n int) {
		if !cfg.admission {
			sem := make(chan struct{}, n)
			s.Use(func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
				sem <- struct{}{}
				defer func() { <-sem }()
				return next(ctx, payload)
			})
		}
	}
	app.Define("asl.text", func(s *rpc.Server) {
		bound(s, textWorkers)
		s.Handle("Render", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			time.Sleep(textWork)
			return nil, nil
		})
	})
	if _, err := app.Spawn("asl.text"); err != nil {
		return aslResult{}
	}
	textCl, err := app.RPC("asl.compose", "asl.text")
	if err != nil {
		return aslResult{}
	}
	app.Define("asl.compose", func(s *rpc.Server) {
		bound(s, composeWorkers)
		s.Handle("Compose", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
			time.Sleep(composeWork)
			return nil, textCl.Call(ctx, "Render", nil, nil)
		})
	})
	for i := 0; i < 2; i++ {
		if _, err := app.Spawn("asl.compose"); err != nil {
			return aslResult{}
		}
	}
	composeCl, err := app.RPC("asl.frontend", "asl.compose")
	if err != nil {
		return aslResult{}
	}
	if _, err := app.StartREST("asl.frontend", func(s *rest.Server) {
		s.Handle("GET /compose", func(ctx *rest.Ctx, body []byte) (any, error) {
			return nil, composeCl.Call(ctx, "Compose", nil, nil)
		})
	}); err != nil {
		return aslResult{}
	}
	front, err := app.REST("client", "asl.frontend")
	if err != nil {
		return aslResult{}
	}

	var ctrl *controlplane.Controller
	if cfg.policy != nil {
		ctrl = controlplane.NewController(controlplane.ControllerConfig{
			Registry: app.Registry,
			Network:  app.Net,
			Spawner:  app,
			Policy:   cfg.policy,
			Interval: 100 * time.Millisecond,
			Services: []controlplane.ManagedService{
				{Name: "asl.compose", Min: 2, Max: 8},
				{Name: "asl.text", Min: 1, Max: 4},
			},
		})
		ctrl.Start()
		defer ctrl.Stop()
	}

	total := aslWarm + aslRise + aslPeakD
	arr := loadgen.NewNonHomogeneous(aslBaseRate,
		loadgen.Ramp{Start: aslWarm, Rise: aslRise, From: 1, To: aslPeakMult},
		aslPeakMult, 0xA5CA1E)
	phaseOf := func(at time.Duration) int {
		switch {
		case at < aslWarm:
			return 0
		case at < aslWarm+aslRise:
			return 1
		default:
			return 2
		}
	}

	var stats [3]aslPhaseStats
	for i := range stats {
		stats[i].lat = metrics.NewHistogram()
	}
	var replicasAtPhaseEnd [3]int
	var mu sync.Mutex
	prevPhase := 0
	loadgen.RunOpenLoop(context.Background(), loadgen.Schedule(arr, total), 0, func(_ context.Context, a loadgen.Arrival) error {
		ph := phaseOf(a.At)
		mu.Lock()
		if ph > prevPhase { // the first arrival of a phase closes the one before
			replicasAtPhaseEnd[prevPhase] = len(app.Registry.Lookup("asl.compose"))
			prevPhase = ph
		}
		mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), aslTimeout)
		t0 := time.Now()
		err := front.Do(ctx, "GET", "/compose", nil, nil)
		cancel()
		lat := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		st := &stats[ph]
		st.issued++
		if err == nil {
			st.lat.RecordDuration(lat)
			if lat <= aslQoS {
				st.good++
			}
		}
		return err
	})
	replicasAtPhaseEnd[2] = len(app.Registry.Lookup("asl.compose"))
	if ctrl != nil {
		ctrl.Stop()
	}

	res := aslResult{
		composeEnd: replicasAtPhaseEnd[2],
		textEnd:    len(app.Registry.Lookup("asl.text")),
	}
	res.composePeak = res.composeEnd
	if ctrl != nil {
		for _, n := range ctrl.History("asl.compose") {
			if n > res.composePeak {
				res.composePeak = n
			}
		}
	}
	if plane != nil {
		for _, a := range plane.Admissions("asl.compose") {
			res.composeShed += a.Report().Shed
		}
	}
	durs := [3]time.Duration{aslWarm, aslRise, aslPeakD}
	for i := range stats {
		st := &stats[i]
		pr := aslPhaseResult{
			offered:         float64(st.issued) / durs[i].Seconds(),
			goodput:         float64(st.good) / durs[i].Seconds(),
			p99:             st.lat.PercentileDuration(99),
			composeReplicas: replicasAtPhaseEnd[i],
		}
		if st.issued > 0 {
			pr.ratio = float64(st.good) / float64(st.issued)
		}
		res.phases[i] = pr
	}
	return res
}
