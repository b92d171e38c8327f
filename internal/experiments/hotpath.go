package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/metrics"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// Knobs for the hotpath experiment. The injected store round-trip stands in
// for a real MongoDB network hop: in-process RPC completes in microseconds,
// which would close the miss window before a stampede can form, so the
// db-timeline wire is slowed to a realistic RTT for both arms.
const (
	hotpathWaves     = 8
	hotpathReaders   = 32
	hotpathFollowers = 64
	hotpathAppends   = 20
	hotpathStoreRTT  = 2 * time.Millisecond
	hotpathFanoutRTT = 500 * time.Microsecond
)

type stampedeResult struct {
	dbGets         int64
	waves, readers int
}

// hotpathStampede boots the Social Network, makes one user's timeline the
// hot key, and repeatedly invalidates it in front of a barrier-released
// burst of concurrent readers — the classic cache stampede. It returns how
// many reads actually reached the timeline store. With coalescing each
// wave collapses to ~1 backing fetch; with it disabled every reader in the
// burst fetches independently.
func hotpathStampede(disableCoalescing bool) (stampedeResult, error) {
	app := core.NewApp("hotpath-stampede", core.Options{DisableTracing: true})
	defer app.Close()
	var dbGets atomic.Int64
	count := func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			if call.Target == "social.db-timeline" && call.Method == "Get" {
				dbGets.Add(1)
			}
			return next(ctx, call)
		}
	}
	sn, err := socialnetwork.New(app, socialnetwork.Config{
		LayoutConfig: svcutil.LayoutConfig{Middleware: []transport.Middleware{count,
			fault.Capacity{Target: "social.db-timeline", Method: "Get", ServiceTime: hotpathStoreRTT}.Middleware()}},
		SearchShards:      2,
		DisableCoalescing: disableCoalescing,
	})
	if err != nil {
		return stampedeResult{}, err
	}
	ctx := context.Background()
	if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: "celeb", Password: "pw"}, nil); err != nil {
		return stampedeResult{}, err
	}
	var login socialnetwork.LoginResp
	if err := sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: "celeb", Password: "pw"}, &login); err != nil {
		return stampedeResult{}, err
	}
	if err := sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{Token: login.Token, Text: "the hot post"}, nil); err != nil {
		return stampedeResult{}, err
	}
	mcRouter, err := app.ShardedRPC("hotpath", "social.mc-timeline")
	if err != nil {
		return stampedeResult{}, err
	}
	mc := svcutil.KV{Shards: mcRouter}

	// Warm once, then count only the stampede traffic.
	if err := sn.ReadTimeline.Call(ctx, "Read", socialnetwork.ReadTimelineReq{User: "celeb", Limit: 10}, nil); err != nil {
		return stampedeResult{}, err
	}
	dbGets.Store(0)
	for w := 0; w < hotpathWaves; w++ {
		if err := mc.Delete(ctx, "tl:celeb"); err != nil {
			return stampedeResult{}, err
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < hotpathReaders; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sn.ReadTimeline.Call(ctx, "Read", socialnetwork.ReadTimelineReq{User: "celeb", Limit: 10}, nil) //nolint:errcheck
			}()
		}
		close(start)
		wg.Wait()
	}
	return stampedeResult{dbGets: dbGets.Load(), waves: hotpathWaves, readers: hotpathReaders}, nil
}

type fanoutResult struct {
	p50, p99  time.Duration
	followers int
	appends   int
	// delivered is the number of post IDs that actually landed on a probe
	// follower's stored timeline — the fan-out correctness check.
	delivered int
}

// hotpathFanout boots the Social Network with an author whose posts fan out
// to hotpathFollowers timelines and measures Append latency under the given
// worker-pool width. workers=1 reproduces the old sequential fan-out; the
// default pool overlaps the per-follower store round-trips.
func hotpathFanout(workers int) (fanoutResult, error) {
	app := core.NewApp("hotpath-fanout", core.Options{DisableTracing: true})
	defer app.Close()
	sn, err := socialnetwork.New(app, socialnetwork.Config{
		LayoutConfig: svcutil.LayoutConfig{Middleware: []transport.Middleware{fault.Capacity{Target: "social.db-timeline", Method: "ListPrepend",
			ServiceTime: hotpathFanoutRTT}.Middleware()}},
		SearchShards:  2,
		FanoutWorkers: workers,
	})
	if err != nil {
		return fanoutResult{}, err
	}
	ctx := context.Background()
	if err := seedAuthor(sn, hotpathFollowers); err != nil {
		return fanoutResult{}, err
	}
	wt, err := app.RPC("hotpath", "social.writeTimeline")
	if err != nil {
		return fanoutResult{}, err
	}
	lats := make([]int64, 0, hotpathAppends)
	for i := 0; i < hotpathAppends; i++ {
		req := socialnetwork.AppendTimelineReq{Author: "author", PostID: fmt.Sprintf("p%02d", i), Ts: int64(i)}
		t0 := time.Now()
		if err := wt.Call(ctx, "Append", req, nil); err != nil {
			return fanoutResult{}, err
		}
		lats = append(lats, time.Since(t0).Nanoseconds())
	}
	qs := metrics.Quantiles(lats, 50, 99)

	// Correctness probe: every append must be on a follower's stored
	// timeline regardless of fan-out parallelism.
	timelines, err := app.ShardedRPC("hotpath", "social.db-timeline")
	if err != nil {
		return fanoutResult{}, err
	}
	ids, err := probeTimeline(svcutil.DB{Shards: timelines})
	if err != nil {
		return fanoutResult{}, err
	}
	return fanoutResult{
		p50:       time.Duration(qs[0]),
		p99:       time.Duration(qs[1]),
		followers: hotpathFollowers,
		appends:   hotpathAppends,
		delivered: len(ids),
	}, nil
}

// HotPath measures the hot-path performance layer on the live stack. The
// stampede arm contrasts miss coalescing against one-fetch-per-reader on a
// hot invalidated timeline key (the paper's memcached tiers exist exactly
// to shield the backing stores from this traffic); the fan-out arm
// contrasts the bounded parallel write fan-out against the old sequential
// walk of a high-follower author's audience — the composePost/repost cost
// the paper singles out as the suite's most expensive query class.
func HotPath() *Report {
	r := &Report{
		ID:     "hotpath",
		Title:  "Miss coalescing and batched write fan-out (live stack)",
		Header: []string{"arm", "config", "store fetches", "append p50", "append p99"},
	}
	fail := func(err error) *Report {
		r.Notes = append(r.Notes, "hotpath: "+err.Error())
		return r
	}

	co, err := hotpathStampede(false)
	if err != nil {
		return fail(err)
	}
	un, err := hotpathStampede(true)
	if err != nil {
		return fail(err)
	}
	stampedeRow := func(label string, s stampedeResult) []string {
		return []string{
			"stampede",
			fmt.Sprintf("%s, %d waves x %d readers", label, s.waves, s.readers),
			fmt.Sprintf("%d (%.1f/wave)", s.dbGets, float64(s.dbGets)/float64(s.waves)),
			"-", "-",
		}
	}
	r.Rows = append(r.Rows, stampedeRow("coalesced", co), stampedeRow("uncoalesced", un))

	pooled, err := hotpathFanout(0) // 0 = the configured default pool
	if err != nil {
		return fail(err)
	}
	seq, err := hotpathFanout(1)
	if err != nil {
		return fail(err)
	}
	fanoutRow := func(label string, f fanoutResult) []string {
		return []string{
			"fanout",
			fmt.Sprintf("%s, %d followers", label, f.followers),
			fmt.Sprintf("%d/%d delivered", f.delivered, f.appends),
			ms(f.p50), ms(f.p99),
		}
	}
	r.Rows = append(r.Rows, fanoutRow("pooled workers", pooled), fanoutRow("sequential", seq))

	if co.dbGets > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"coalescing cut backing-store fetches %.0fx (%d -> %d) across %d concurrent-miss waves",
			float64(un.dbGets)/float64(co.dbGets), un.dbGets, co.dbGets, co.waves))
	}
	if pooled.p50 > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"parallel fan-out cut append p50 %.1fx vs sequential (%s -> %s)",
			float64(seq.p50)/float64(pooled.p50), ms(seq.p50), ms(pooled.p50)))
	}
	return r
}
