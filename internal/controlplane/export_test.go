package controlplane

import "math"

// LagAware autoscales async consumer tiers on their reported broker
// backlog. Request-side policies are blind here: an async consumer's
// admission queue is always near-empty (it pulls work at its own pace) and
// its utilization says nothing about how far behind the group has fallen.
// Lag — messages the broker holds that no one has processed — is the
// backlog itself, so the policy sizes the tier directly from it: enough
// replicas that each one's share of the backlog is at most
// TargetPerReplica. Scale-up jumps straight to that size; scale-down
// releases one replica per pass only once the group is fully drained, so a
// bursty producer doesn't flap the tier.
type LagAware struct {
	// TargetPerReplica is the backlog one replica is expected to absorb
	// (default 32 messages).
	TargetPerReplica int
}

// Name implements Policy.
func (p LagAware) Name() string { return "lag-aware" }

// Desired implements Policy.
func (p LagAware) Desired(agg Aggregate) int {
	target := p.TargetPerReplica
	if target <= 0 {
		target = 32
	}
	if agg.Reporting == 0 {
		return agg.Replicas // no signal: hold
	}
	needed := int(math.Ceil(float64(agg.Lag) / float64(target)))
	if needed > agg.Replicas {
		return needed // jump to the backlog-implied size, no one-step creep
	}
	if agg.Lag == 0 && agg.Replicas > 1 {
		return agg.Replicas - 1
	}
	return agg.Replicas
}

// SetLagProbe attaches a consumer-backlog source to every replica of an
// async-consumer service — those already started and those spawned later —
// so their load reports carry the lag a LagAware policy scales on. Every
// replica of the service shares the probe: group backlog is a per-group
// fact, not a per-replica one, and the aggregator takes the max.
func (p *Plane) SetLagProbe(service string, fn func() int64) {
	p.mu.Lock()
	p.lagProbes[service] = fn
	existing := append([]*Admission(nil), p.admissions[service]...)
	p.mu.Unlock()
	for _, a := range existing {
		a.SetLagProbe(fn)
	}
}
