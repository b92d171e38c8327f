package sim

import (
	"testing"
	"time"

	"dsb/internal/graph"
)

// twoTierApp is a minimal caller→callee topology for focused tests.
func twoTierApp() *graph.App {
	p := map[string]graph.Profile{
		"front": {Language: "C", Cycles: 300e3, CodeKB: 100, KernelFrac: 0.4, LibFrac: 0.2, MsgBytes: 512, Workers: 8},
		"back":  {Language: "C", Cycles: 100e3, FixedNs: 10e3, CodeKB: 100, KernelFrac: 0.4, LibFrac: 0.2, MsgBytes: 512, Workers: 32},
	}
	root := &graph.Node{Service: "front", Work: 1, Calls: []graph.Call{
		{Stage: 0, Count: 1, Node: &graph.Node{Service: "back", Work: 1}},
	}}
	return &graph.App{Name: "mini", Profiles: p, Root: root, WireNs: graph.DatacenterWireNs}
}

func TestConnLimitBackpressuresCaller(t *testing.T) {
	// With a tight connection table on a slowed backend, the front tier
	// saturates (workers held) even though the backend CPU pool is idle.
	run := func(conns int) (frontUtil, backUtil float64, p99 time.Duration) {
		cfg := Config{App: twoTierApp(), Seed: 31}
		if conns > 0 {
			cfg.ConnsPerInstance = map[string]int{"back": conns}
		}
		d, _ := NewDeployment(New(), cfg)
		d.SetSlow("back", 0, 10) //nolint:errcheck
		d.SampleReset()
		res := d.RunOpenLoop(4000, time.Second)
		return d.Service("front").Utilization(), d.Service("back").Utilization(), time.Duration(res.E2E.P99)
	}
	fUnlimited, _, p99Unlimited := run(0)
	fLimited, bLimited, p99Limited := run(1)
	if p99Limited <= p99Unlimited {
		t.Fatalf("conn limit did not hurt tail: %v vs %v", p99Limited, p99Unlimited)
	}
	if fLimited < 0.9 {
		t.Fatalf("front util with conn limit = %f, want saturated", fLimited)
	}
	if bLimited > 0.5 {
		t.Fatalf("back CPU util = %f, should stay idle (conns are the bottleneck)", bLimited)
	}
	_ = fUnlimited
}

func TestBalanceWorkersEvensSaturation(t *testing.T) {
	d, _ := NewDeployment(New(), Config{App: graph.SocialNetwork(), Seed: 32})
	d.BalanceWorkers(400, 1.3)
	d.SampleReset()
	d.RunOpenLoop(380, 2*time.Second)
	// At ~95% of the provisioning target, every major tier should be
	// meaningfully utilized — no tier left at near-zero while another
	// saturates (the imbalance balanced provisioning removes).
	var min, max float64 = 2, 0
	for _, svc := range []string{"nginx", "composePost", "text", "postsStorage", "writeTimeline"} {
		u := d.Service(svc).Utilization()
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max > 0 && min/max < 0.15 {
		t.Fatalf("tiers badly imbalanced after BalanceWorkers: min=%f max=%f", min, max)
	}
}

func TestGoodTargetCounting(t *testing.T) {
	d, _ := NewDeployment(New(), Config{App: twoTierApp(), Seed: 33})
	d.GoodTarget = time.Second // everything qualifies at low load
	d.RunOpenLoop(50, time.Second)
	if d.GoodCount != d.Completed {
		t.Fatalf("good = %d, completed = %d", d.GoodCount, d.Completed)
	}
	d2, _ := NewDeployment(New(), Config{App: twoTierApp(), Seed: 33})
	d2.GoodTarget = time.Nanosecond // nothing qualifies
	d2.RunOpenLoop(50, time.Second)
	if d2.GoodCount != 0 {
		t.Fatalf("good = %d with impossible target", d2.GoodCount)
	}
}

func TestHotFractionConcentratesLoad(t *testing.T) {
	mk := func(hot float64) *Deployment {
		d, _ := NewDeployment(New(), Config{
			App: twoTierApp(), Seed: 34,
			Replicas:    map[string]int{"back": 4},
			HotFraction: hot,
		})
		d.SampleReset()
		d.RunOpenLoop(2000, time.Second)
		return d
	}
	balanced := mk(0)
	skewed := mk(0.9)
	utilOf := func(d *Deployment, idx int) float64 {
		return d.Service("back").Instances[idx].Proc.Utilization()
	}
	if utilOf(skewed, 0) <= 2*utilOf(balanced, 0) {
		t.Fatalf("hot instance util %f not concentrated vs balanced %f", utilOf(skewed, 0), utilOf(balanced, 0))
	}
	// SetHotFraction flips routing at runtime.
	d := mk(0)
	d.SetHotFraction(1.0)
	before := utilOf(d, 0)
	d.SampleReset()
	d.RunOpenLoop(1000, time.Second)
	if utilOf(d, 0) <= before/2 && utilOf(d, 0) < 0.1 {
		t.Fatalf("runtime hot fraction had no effect: %f", utilOf(d, 0))
	}
}

func TestAddInstanceInheritsWorkers(t *testing.T) {
	d, _ := NewDeployment(New(), Config{App: twoTierApp(), Seed: 35})
	d.Service("back").Instances[0].Proc.SetWorkers(3)
	d.AddInstance("back")
	insts := d.Service("back").Instances
	if len(insts) != 2 {
		t.Fatalf("instances = %d", len(insts))
	}
	if insts[1].Proc.Workers() != 3 {
		t.Fatalf("new instance workers = %d, want 3", insts[1].Proc.Workers())
	}
	d.AddInstance("ghost") // no panic on unknown service
}

func TestPerServiceNetResidRecorded(t *testing.T) {
	d, _ := NewDeployment(New(), Config{App: twoTierApp(), Seed: 36})
	d.RunOpenLoop(50, time.Second)
	back := d.Service("back")
	if back.NetResid.Snapshot().Count == 0 {
		t.Fatal("no per-service network residence recorded")
	}
	// Network residence must be below total residence.
	if back.NetResid.Percentile(50) >= back.Resid.Percentile(50)+1 {
		t.Fatalf("net %d >= resid %d", back.NetResid.Percentile(50), back.Resid.Percentile(50))
	}
}
