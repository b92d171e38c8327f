package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/loadgen"
	"dsb/internal/rpc"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/transport"
)

// Chaos reproduces the recovery contrast of Fig 20 on the live Social
// Network: a readPost replica crashes mid-run (goes silent without
// deregistering — the registry keeps a corpse), and later the entire
// readTimeline→readPost edge is partitioned at the connection level. Two
// arms face the identical seeded fault schedule:
//
//	unprotected — plain registrations, fail-hard services: the crashed
//	              replica keeps absorbing picks (each one burns the client
//	              deadline) until an operator action deregisters it, and
//	              the partition zeroes goodput for its whole window — the
//	              paper's slow-recovery curve
//	protected   — health leases + resilience stack + graceful degradation:
//	              degraded (stale-cache) responses bridge the lease window,
//	              the lease evicts the corpse within one TTL, and the
//	              partition is served from stale cache — the fast-recovery
//	              curve
//
// Goodput is bucketed on the arrival clock so both arms and both runs of
// the same seed measure the same windows.
func Chaos() *Report {
	r := &Report{
		ID:    "chaos",
		Title: "Replica crash and partition vs leases + degradation (Fig 20 extension, live stack)",
		Header: []string{"config", "phase", "offered (req/s)", "goodput (req/s)",
			"good/offered", "degraded"},
	}
	for _, arm := range []struct {
		name      string
		protected bool
	}{
		{"unprotected", false},
		{"leases+degradation", true},
	} {
		res := runChaos(arm.protected, chaosSeed)
		for _, w := range chaosWindows {
			issued, good, degraded := res.window(w.from, w.until)
			secs := (w.until - w.from).Seconds()
			ratio := 0.0
			if issued > 0 {
				ratio = float64(good) / float64(issued)
			}
			r.Rows = append(r.Rows, []string{
				arm.name, w.name,
				qpsStr(float64(issued) / secs), qpsStr(float64(good) / secs),
				f2(ratio), fmt.Sprintf("%d", degraded),
			})
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: crash at %v, goodput trough %.2f of steady, back to 90%% of steady %v after the crash",
			arm.name, res.crashAt.Round(time.Millisecond), res.trough(), res.recovery().Round(time.Millisecond)))
	}
	r.Notes = append(r.Notes,
		"unprotected: the corpse owns half the picks and every one burns the full client deadline; only the scheduled operator deregistration restores goodput (Fig 20's slow microservice recovery)",
		fmt.Sprintf("protected: degraded stale-cache reads bridge the crash, the lease evicts the corpse within %v, and the partition window is served degraded instead of lost", chaosLease))
	return r
}

const (
	chaosSeed    = 42
	chaosLease   = 120 * time.Millisecond
	chaosRate    = 250.0 // offered readTimeline req/s
	chaosTimeout = 80 * time.Millisecond
	chaosBucket  = 100 * time.Millisecond
	chaosUsers   = 6

	// Fault timeline. The crash lands at a seeded-random instant inside
	// [chaosCrashLo, chaosCrashHi); the windows below exclude that boundary
	// bucket so "steady" and "crash" are clean.
	chaosCrashLo   = 400 * time.Millisecond
	chaosCrashHi   = 500 * time.Millisecond
	chaosManualAt  = 1000 * time.Millisecond // unprotected arm: operator deregisters the corpse
	chaosPartStart = 1300 * time.Millisecond
	chaosPartEnd   = 1600 * time.Millisecond
	chaosTotal     = 1900 * time.Millisecond
)

// chaosWindows are the reporting phases, aligned to the fault timeline.
var chaosWindows = []struct {
	name        string
	from, until time.Duration
}{
	{"steady", 0, chaosCrashLo},
	{"crash", chaosCrashHi, chaosManualAt},
	{"healed", chaosManualAt, chaosPartStart},
	{"partition", chaosPartStart, chaosPartEnd},
	{"final", chaosPartEnd, chaosTotal},
}

type chaosBucket100 struct {
	issued, good, degraded int
}

type chaosResult struct {
	schedule string        // scenario timeline — the reproducibility witness
	crashAt  time.Duration // where the seeded crash landed
	buckets  []chaosBucket100
}

// window sums buckets whose start lies in [from, until).
func (r *chaosResult) window(from, until time.Duration) (issued, good, degraded int) {
	for i, b := range r.buckets {
		at := time.Duration(i) * chaosBucket
		if at >= from && at < until {
			issued += b.issued
			good += b.good
			degraded += b.degraded
		}
	}
	return
}

// ratio returns one bucket's good/issued (1 when the bucket is empty, so
// quiet buckets never read as outages).
func (r *chaosResult) ratio(i int) float64 {
	if i < 0 || i >= len(r.buckets) || r.buckets[i].issued == 0 {
		return 1
	}
	return float64(r.buckets[i].good) / float64(r.buckets[i].issued)
}

// steady is the goodput ratio before the crash.
func (r *chaosResult) steady() float64 {
	issued, good, _ := r.window(0, chaosCrashLo)
	if issued == 0 {
		return 0
	}
	return float64(good) / float64(issued)
}

// trough is the worst bucket ratio in the crash window, relative to steady.
func (r *chaosResult) trough() float64 {
	steady := r.steady()
	if steady == 0 {
		return 0
	}
	min := 1.0
	for i := int(chaosCrashHi / chaosBucket); i < int(chaosManualAt/chaosBucket); i++ {
		if v := r.ratio(i); v < min {
			min = v
		}
	}
	return min / steady
}

// recovery is the delay from the crash until the first bucket back at 90%
// of steady goodput (with every later pre-manual bucket also recovered, so
// a lucky bucket inside an ongoing outage doesn't count).
func (r *chaosResult) recovery() time.Duration {
	steady := r.steady()
	last := int(chaosPartStart / chaosBucket) // stop before the partition phase
	for i := int(r.crashAt / chaosBucket); i < last; i++ {
		ok := true
		for j := i; j < last; j++ {
			if r.ratio(j) < 0.9*steady {
				ok = false
				break
			}
		}
		if ok {
			return time.Duration(i)*chaosBucket + chaosBucket - r.crashAt
		}
	}
	return chaosTotal
}

// chaosScenario builds the fault schedule for one arm. kill and deregister
// are bound late so the schedule can also be built standalone (nil hooks)
// to witness reproducibility. Both arms share the seeded crash instant; the
// operator deregistration step exists only in the unprotected arm, where
// nothing else would ever remove the corpse.
func chaosScenario(inj *fault.Injector, protected bool, kill, deregister func()) *fault.Scenario {
	noop := func() {}
	if kill == nil {
		kill = noop
	}
	if deregister == nil {
		deregister = noop
	}
	sc := fault.NewScenario(inj)
	sc.Between(chaosCrashLo, chaosCrashHi, fault.Action("crash(social.readPost/1)", kill))
	if !protected {
		sc.At(chaosManualAt, fault.Action("deregister(social.readPost/1)", deregister))
	}
	sc.During(chaosPartStart, chaosPartEnd, fault.Partition("social.readTimeline", "social.readPost"))
	return sc
}

// runChaos boots one arm, plays the schedule against it, and buckets
// goodput on the arrival clock.
func runChaos(protected bool, seed int64) chaosResult {
	inj := fault.NewInjector(seed)
	opts := core.Options{
		DisableTracing: true,
		Network:        inj.Wrap(rpc.NewMem()),
	}
	if protected {
		opts.LeaseTTL = chaosLease
		opts.Resilience = &transport.ResilienceConfig{
			Budget:  &transport.BudgetConfig{Fraction: 0.9},
			Retry:   &transport.RetryConfig{Attempts: 2},
			Breaker: &transport.BreakerConfig{Failures: 4, Cooldown: 300 * time.Millisecond},
		}
	}
	app := core.NewApp("chaos", opts)
	defer app.Close()
	sn, err := socialnetwork.New(app, socialnetwork.Config{
		SearchShards:       2,
		DisableDegradation: !protected,
	})
	if err != nil {
		return chaosResult{}
	}
	if _, err := app.Spawn("social.readPost"); err != nil {
		return chaosResult{}
	}

	// Seed the graph: each user follows the next two, posts twice, and gets
	// one priming read (fills the timeline caches and, in the protected
	// arm, the stale-posts fallback).
	ctx := context.Background()
	users := make([]string, chaosUsers)
	for i := range users {
		users[i] = fmt.Sprintf("chaos%d", i)
		if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: users[i], Password: "pw"}, nil); err != nil {
			return chaosResult{}
		}
	}
	tokens := make([]string, chaosUsers)
	for i, u := range users {
		var lr socialnetwork.LoginResp
		if err := sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: u, Password: "pw"}, &lr); err != nil {
			return chaosResult{}
		}
		tokens[i] = lr.Token
		for d := 1; d <= 2; d++ {
			sn.Graph.Call(ctx, "Follow", socialnetwork.FollowReq{ //nolint:errcheck
				Follower: u, Followee: users[(i+d)%chaosUsers]}, nil)
		}
	}
	for i, u := range users {
		for p := 0; p < 2; p++ {
			if err := sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
				Token: tokens[i], Text: fmt.Sprintf("post %d from %s", p, u)}, nil); err != nil {
				return chaosResult{}
			}
		}
	}
	for _, u := range users {
		if err := sn.ReadTimeline.Call(ctx, "Read", socialnetwork.ReadTimelineReq{User: u}, nil); err != nil {
			return chaosResult{}
		}
	}

	// The second readPost replica is the victim. Kill leaves it registered
	// and silently eating requests; only a lease (protected) or the
	// scheduled operator action (unprotected) removes the corpse.
	replicas := app.Instances("social.readPost")
	if len(replicas) < 2 {
		return chaosResult{}
	}
	victim := replicas[1]
	sc := chaosScenario(inj, protected,
		func() { victim.Kill() },
		func() { app.Registry.Deregister("social.readPost", victim.Addr) })

	res := chaosResult{
		schedule: sc.String(),
		buckets:  make([]chaosBucket100, int(chaosTotal/chaosBucket)+1),
	}
	for _, st := range sc.Timeline() {
		if st.Fault.Name == "crash(social.readPost/1)" {
			res.crashAt = st.At
		}
	}

	arrivals := loadgen.Schedule(loadgen.NewPoisson(chaosRate, uint64(seed)), chaosTotal)
	playCtx, stopPlay := context.WithCancel(ctx)
	defer stopPlay()
	played := sc.Play(playCtx)

	var mu sync.Mutex
	loadgen.RunOpenLoop(ctx, arrivals, 0, func(ctx context.Context, a loadgen.Arrival) error {
		rctx, cancel := context.WithTimeout(ctx, chaosTimeout)
		defer cancel()
		var resp socialnetwork.ReadTimelineResp
		err := sn.ReadTimeline.Call(rctx, "Read", socialnetwork.ReadTimelineReq{User: users[a.Index%chaosUsers]}, &resp)
		mu.Lock()
		defer mu.Unlock()
		b := &res.buckets[int(a.At/chaosBucket)]
		b.issued++
		if err == nil {
			b.good++
			if resp.Degraded {
				b.degraded++
			}
		}
		return err
	})
	stopPlay()
	<-played
	return res
}
