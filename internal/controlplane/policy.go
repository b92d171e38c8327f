package controlplane

import (
	"math"
	"time"
)

// Aggregate is the per-service view the controller hands a Policy: the
// replica reports of one tier folded together.
type Aggregate struct {
	Service string
	// Replicas is the registry's current instance count; Reporting is how
	// many answered the report probe this pass.
	Replicas  int
	Reporting int
	// Workers is the mean per-replica worker-pool size (0 = unbounded).
	Workers float64
	// Utilization is the mean worker utilization across reporting replicas.
	Utilization float64
	// QueueDepth and InFlight are summed across replicas.
	QueueDepth int64
	InFlight   int64
	// RatePerSec and ShedPerSec are summed: completed demand and refused
	// demand. Their sum approximates offered load on the tier.
	RatePerSec float64
	ShedPerSec float64
	// P99 is the worst replica sojourn p99; QueueP99 the worst queue-wait
	// p99 — congestion at THIS tier, downstream time excluded.
	P99      time.Duration
	QueueP99 time.Duration
	// ServiceTime is the mean expected per-request service time.
	ServiceTime time.Duration
}

// AggregateReports folds replica reports into the policy input.
func AggregateReports(service string, replicas int, reports []LoadReport) Aggregate {
	agg := Aggregate{Service: service, Replicas: replicas, Reporting: len(reports)}
	if len(reports) == 0 {
		return agg
	}
	var workers, util, svc float64
	for _, r := range reports {
		workers += float64(r.Workers)
		util += r.Utilization
		svc += float64(r.ServiceEWMANs)
		agg.QueueDepth += r.QueueDepth
		agg.InFlight += r.InFlight
		agg.RatePerSec += r.RatePerSec
		agg.ShedPerSec += r.ShedPerSec
		if p := time.Duration(r.P99Ns); p > agg.P99 {
			agg.P99 = p
		}
		if p := time.Duration(r.QueueP99Ns); p > agg.QueueP99 {
			agg.QueueP99 = p
		}
	}
	n := float64(len(reports))
	agg.Workers = workers / n
	agg.Utilization = util / n
	agg.ServiceTime = time.Duration(svc / n)
	return agg
}

// Policy maps an aggregate load view to a desired replica count. The
// controller clamps the answer to the service's Min/Max.
type Policy interface {
	Name() string
	Desired(agg Aggregate) int
}

// UtilizationThreshold is the autoscaler of the paper's cluster-management
// study: scale up when mean worker utilization crosses Up, down when it
// falls below Down. Simple and widely deployed — and exactly the policy
// that mis-scales in Fig 18, because utilization cannot distinguish a tier
// doing work from a tier whose workers are blocked on a slow downstream.
type UtilizationThreshold struct {
	Up   float64 // default 0.75
	Down float64 // default 0.20
	Step int     // replicas added per trigger (default 1)
}

// Name implements Policy.
func (p UtilizationThreshold) Name() string { return "threshold" }

// Desired implements Policy.
func (p UtilizationThreshold) Desired(agg Aggregate) int {
	up, down, step := p.Up, p.Down, p.Step
	if up <= 0 {
		up = 0.75
	}
	if down <= 0 {
		down = 0.20
	}
	if step <= 0 {
		step = 1
	}
	if agg.Reporting == 0 || agg.Workers <= 0 {
		return agg.Replicas // no signal, or unbounded workers: hold
	}
	if agg.Utilization >= up {
		return agg.Replicas + step
	}
	if agg.Utilization <= down {
		return agg.Replicas - 1
	}
	return agg.Replicas
}

// LatencyAware scales on the tier's own congestion signals — queue wait,
// sheds, backlog — and sizes the jump from demand (completed + shed load)
// against measured per-replica capacity, Little's-law style. Utilization
// never triggers a scale-up on its own: a tier whose workers are blocked
// on a slow downstream shows high utilization but an empty local queue and
// no sheds, and adding replicas there (Fig 18's mistake) burns machines
// without moving the bottleneck.
type LatencyAware struct {
	// QoS is the end-to-end latency target used for the scale-down guard.
	QoS time.Duration
	// Headroom over-provisions above measured demand (default 1.25).
	Headroom float64
	// CongestWait is the queue-wait p99 above which the tier counts as
	// congested (default 2ms).
	CongestWait time.Duration
	// DownUtil is the utilization below which an uncongested tier may
	// release one replica per pass (default 0.35).
	DownUtil float64
}

// Name implements Policy.
func (p LatencyAware) Name() string { return "latency-aware" }

// Desired implements Policy.
func (p LatencyAware) Desired(agg Aggregate) int {
	headroom, congestWait, downUtil := p.Headroom, p.CongestWait, p.DownUtil
	if headroom <= 1 {
		headroom = 1.25
	}
	if congestWait <= 0 {
		congestWait = 2 * time.Millisecond
	}
	if downUtil <= 0 {
		downUtil = 0.35
	}
	if agg.Reporting == 0 || agg.Workers <= 0 || agg.ServiceTime <= 0 {
		return agg.Replicas // unbounded or signal-less tiers are never the bottleneck we can fix
	}

	// Per-replica capacity from its own measurements: workers / service
	// time. The EWMA service time includes downstream waits, so capacity
	// shrinks when downstream slows — conservative in the right direction.
	perReplica := agg.Workers / agg.ServiceTime.Seconds()
	if perReplica <= 0 {
		return agg.Replicas
	}
	// Demand = what we completed + what we refused: sheds are demand the
	// tier failed to serve, the exact gap scaling should close.
	demand := agg.RatePerSec + agg.ShedPerSec
	needed := int(math.Ceil(demand * headroom / perReplica))
	// Extra capacity to drain the standing backlog within ~one report
	// window rather than just keeping pace with arrivals.
	if agg.QueueDepth > 0 {
		needed += int(math.Ceil(float64(agg.QueueDepth) / math.Max(agg.Workers, 1)))
	}

	congested := agg.ShedPerSec > 0 ||
		agg.QueueP99 > congestWait ||
		float64(agg.QueueDepth) > agg.Workers*float64(agg.Replicas)

	if needed > agg.Replicas {
		if congested {
			return needed // jump straight to demand, no one-step creep
		}
		// High estimated demand but no local congestion: the tier is
		// keeping up (the estimate is inflated by downstream time, or
		// headroom). Holding here is what avoids Fig 18's upstream
		// mis-scale.
		return agg.Replicas
	}
	// Scale down one step at a time, only when comfortably idle AND
	// latency-safe, so release never causes a shed storm it must undo.
	if needed < agg.Replicas && !congested && agg.Utilization < downUtil &&
		(p.QoS <= 0 || agg.P99 < p.QoS/2) {
		return agg.Replicas - 1
	}
	return agg.Replicas
}
