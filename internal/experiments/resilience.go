package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dsb/internal/core"
	"dsb/internal/loadgen"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// SlowServerResilience extends Figure 22c onto the live stack: the paper
// shows that once ≥1% of servers are slow, microservice goodput collapses
// to ~0, because a deep service graph almost guarantees every request
// crosses some slow instance. This experiment reproduces the collapse on a
// live multi-tier chain, then turns on the transport resilience layer
// (deadline budgets, retries, hedged requests, per-replica circuit
// breakers) and measures how much of the fault-free goodput it restores:
// hedges rescue the first calls that land on a slow replica, the breaker's
// latency-outlier detection then ejects it so later calls never pay the
// tail at all.
func SlowServerResilience() *Report {
	r := &Report{
		ID:    "resilience",
		Title: "Slow servers vs goodput, with and without the resilience layer (live stack)",
		Header: []string{"config", "slow/tier", "goodput (req/s)", "normalized",
			"p50", "p99", "hedge wins", "breaker trips"},
	}

	const (
		tiers    = 6                     // chain depth; P(clean path) = (3/4)^6 ≈ 0.18
		replicas = 4                     // instances per tier
		qos      = 12 * time.Millisecond // end-to-end QoS target
		slowTime = 20 * time.Millisecond // a slow server blows the whole budget
		// Healthy per-tier service time, busy-spun: the container's sleep
		// granularity (~1ms) is coarser than the RPC round trip (~10µs), so
		// sub-millisecond service times must burn rather than sleep.
		workTime = 20 * time.Microsecond
	)

	baseline := runChain(chainConfig{tiers: tiers, replicas: replicas, qos: qos,
		workTime: workTime, slowTime: slowTime})
	unprotected := runChain(chainConfig{tiers: tiers, replicas: replicas, qos: qos,
		workTime: workTime, slowTime: slowTime, slowPerTier: 1})
	protected := runChain(chainConfig{tiers: tiers, replicas: replicas, qos: qos,
		workTime: workTime, slowTime: slowTime, slowPerTier: 1, protected: true})

	row := func(name string, slow int, res chainResult) {
		norm := 0.0
		if baseline.goodput > 0 {
			norm = res.goodput / baseline.goodput
		}
		r.Rows = append(r.Rows, []string{
			name, fmt.Sprintf("%d/%d", slow, replicas),
			fmt.Sprintf("%.0f", res.goodput), fmt.Sprintf("%.2f", norm),
			ms(res.p50), ms(res.p99),
			fmt.Sprintf("%d", res.hedgeWins), fmt.Sprintf("%d", res.breakerTrips),
		})
	}
	row("fault-free", 0, baseline)
	row("slow, unprotected", 1, unprotected)
	row("slow, resilient", 1, protected)

	r.Notes = append(r.Notes,
		fmt.Sprintf("chain of %d tiers × %d replicas; a clean path misses every slow replica with p=(3/4)^%d ≈ %.2f",
			tiers, replicas, tiers, cleanPathProb(tiers, replicas)),
		"unprotected: one slow replica per tier drives goodput toward 0 (paper Fig 22c)",
		"resilient: hedged requests rescue calls that land on a slow replica; the per-replica breaker's slow-call detection then ejects it, restoring most of the fault-free goodput")
	return r
}

// burn spins for d; handler service times are far below the scheduler's
// sleep granularity, so sleeping would distort them by an order of
// magnitude. A spin never blocks, so this one live experiment cannot run on
// virtual time; as 20µs timers it can, but then its wall-clock run reads lag.
func burn(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func cleanPathProb(tiers, replicas int) float64 {
	p := 1.0
	for i := 0; i < tiers; i++ {
		p *= float64(replicas-1) / float64(replicas)
	}
	return p
}

type chainConfig struct {
	tiers       int
	replicas    int
	slowPerTier int
	protected   bool
	qos         time.Duration
	workTime    time.Duration
	slowTime    time.Duration
}

type chainResult struct {
	goodput      float64 // QoS-compliant requests per second, steady state
	hedgeWins    int64
	breakerTrips int64
	p50, p99     time.Duration // end-to-end latency, measured phase
}

// runChain boots a root→tier1→…→tierN RPC chain on an in-memory network,
// drives it closed-loop, and measures steady-state goodput (requests
// finishing inside the QoS target per second). The first warmup phase is
// excluded, giving the breakers time to find the slow replicas.
func runChain(cfg chainConfig) chainResult {
	opts := core.Options{DisableTracing: true}
	if cfg.protected {
		opts.Resilience = &transport.ResilienceConfig{
			Budget: &transport.BudgetConfig{Fraction: 0.8},
			Retry:  &transport.RetryConfig{Attempts: 2},
			// Budget-scaled delays nest the per-tier hedges: deeper hops hold
			// tighter budgets and hedge sooner, so the rescue closest to a
			// slow server fires first and upstream primaries finish before
			// their own delays do.
			Hedge: &transport.HedgeConfig{Delay: 500 * time.Microsecond, BudgetFraction: 0.6, MaxHedges: 2},
			Breaker: &transport.BreakerConfig{
				Failures: 5,
				Cooldown: 300 * time.Millisecond,
				// Above the healthy end-to-end latency, below the earliest
				// hedge fire time: an attempt canceled because a sibling
				// outran it has necessarily run past this, so the slow
				// replica is charged; healthy replicas in rescued branches
				// are not (the outrun gate, see BreakerConfig).
				SlowThreshold: 2 * time.Millisecond,
				// Spent budgets indict the subtree, not the next hop; let the
				// outrun signal do the attribution.
				NeutralDeadline: true,
				MaxEjected:      1,
			},
		}
	}
	app := core.NewApp("chain", opts)
	defer app.Close()

	// Boot leaf-first so each tier can wire its downstream client.
	var next svcutil.Caller
	for tier := cfg.tiers; tier >= 1; tier-- {
		svc := fmt.Sprintf("chain.tier%d", tier)
		for rep := 0; rep < cfg.replicas; rep++ {
			slow := rep < cfg.slowPerTier
			down := next // capture this tier's downstream client
			_, err := app.StartRPC(svc, func(s *rpc.Server) {
				s.Handle("Work", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
					if slow {
						time.Sleep(cfg.slowTime)
					} else {
						burn(cfg.workTime)
					}
					if down != nil {
						return nil, down.Call(ctx, "Work", nil, nil)
					}
					return nil, nil
				})
			})
			if err != nil {
				return chainResult{}
			}
		}
		cl, err := app.RPC(fmt.Sprintf("chain.tier%d", tier-1), svc)
		if err != nil {
			return chainResult{}
		}
		next = cl
	}
	root := next

	const (
		workers = 4
		warmup  = 700 * time.Millisecond
		measure = 500 * time.Millisecond
	)
	// do returns nil so timed-out requests are recorded too: the latency
	// columns show what callers waited, and goodness is counted apart.
	var good atomic.Int64
	run := loadgen.RunClosedLoop(context.Background(), workers, warmup, warmup+measure,
		func(_ context.Context, a loadgen.Arrival) error {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.qos)
			defer cancel()
			t0 := time.Now()
			err := root.Call(ctx, "Work", nil, nil)
			if err == nil && time.Since(t0) <= cfg.qos && a.At >= warmup {
				good.Add(1)
			}
			return nil
		})

	res := chainResult{
		goodput: float64(good.Load()) / measure.Seconds(),
		p50:     time.Duration(run.Latency.P50),
		p99:     time.Duration(run.Latency.P99),
	}
	if app.Transport != nil {
		res.hedgeWins = app.Transport.HedgeWins.Value()
		res.breakerTrips = app.Transport.BreakerOpened.Value()
	}
	return res
}
