package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/loadgen"
	"dsb/internal/rpc"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/shard"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// Broker-crash experiment: kill a broker instance mid-fanout and measure
// what the durability contract is worth. Both arms run the Social Network's
// async timeline path on a two-shard broker tier under a short health
// lease; the replicated arm gives each shard a mirror (BrokerReplicas=2),
// the unreplicated arm does not. Producers publish with stable keys
// (author/postID) and retry failed Appends — the end-to-end idempotency the
// tier is designed around — and the probe follower's stored timeline is the
// ground truth for delivery. Crash-arm completeness is asserted on that
// *delivered state*, never on a backlog drain: the corpse keeps its local
// queue memory, so cluster-wide lag counts orphaned copies forever.
const (
	bcFollowers  = 8
	bcStoreSlots = 4
	bcStoreRTT   = 2 * time.Millisecond
	// bcRate offers posts far above the fan-out drain capacity
	// (bcStoreSlots/(bcFollowers·bcStoreRTT) = 250/s): push delivery
	// pre-stages a stream window (32 messages) with each of a shard's two
	// consumers, and those survive the broker, so the backlog standing when
	// the crash lands has to be deeper than 64 a shard for any of it to
	// still be queued on the corpse.
	bcRate  = 900.0
	bcPosts = 450
	// bcLease is the broker tier's health lease: the crash window — during
	// which publishes to the dead shard fail over or stall and its backlog
	// is unreachable — ends when the lease evicts the corpse and the ring
	// re-forms.
	bcLease = 120 * time.Millisecond
	// bcCrashAt fires the kill mid-drive, with backlog standing and
	// messages leased.
	bcCrashAt = 300 * time.Millisecond
	// bcAttempt bounds one Append attempt; a publish stalled on the
	// not-yet-evicted corpse fails fast enough to retry within the run.
	bcAttempt = 400 * time.Millisecond
	// bcAckBudget bounds the per-post retry loop: a post unacked by then
	// counts as shed, not lost.
	bcAckBudget = 5 * time.Second
	// bcConverge bounds the post-drive delivery watch; bcSettled ends it
	// early once the delivered set stops growing.
	bcConverge = 10 * time.Second
	bcSettled  = 2 * time.Second
)

// bcResult is one arm's accounting. All delivery counts are against the
// acked set: acked is the contract (Append returned success), delivered is
// acked posts present on the probe follower's stored timeline, lost is
// acked posts that never arrive — the quantity replication must hold at
// zero.
type bcResult struct {
	appended  int // unique posts driven
	acked     int // posts whose Append eventually succeeded
	retries   int // failed Append attempts (crash-window stall, quantified)
	delivered int // acked posts on the probe timeline at settle
	lost      int // acked - delivered
	dups      int // duplicate timeline entries (must stay 0)
	recovered bool
	recovery  time.Duration // crash → last acked post delivered
	schedule  string
}

// bcRun boots one arm, kills shard 0's primary broker mid-drive, and
// watches the probe follower's timeline until the delivered set settles.
func bcRun(replicated bool) (bcResult, error) {
	inj := fault.NewInjector(41)
	app := core.NewApp("brokercrash", core.Options{
		DisableTracing: true,
		Network:        inj.Wrap(rpc.NewMem()),
		LeaseTTL:       bcLease,
	})
	defer app.Close()
	cfg := socialnetwork.Config{
		LayoutConfig: svcutil.LayoutConfig{
			Middleware: []transport.Middleware{fault.Capacity{Target: "social.db-timeline", Method: "ListPrepend",
				Slots: bcStoreSlots, ServiceTime: bcStoreRTT}.Middleware()},
		},
		BrokerShards:  2,
		SearchShards:  2,
		AsyncFanout:   true,
		FanoutWorkers: bcStoreSlots,
	}
	if replicated {
		cfg.BrokerReplicas = 2
	}
	sn, err := socialnetwork.New(app, cfg)
	if err != nil {
		return bcResult{}, err
	}
	defer sn.Close()
	if _, err := app.Spawn("social.fanout"); err != nil { // a second consumer
		return bcResult{}, err
	}
	ctx := context.Background()
	if err := seedAuthor(sn, bcFollowers); err != nil {
		return bcResult{}, err
	}
	wt, err := app.RPC("brokercrash", "social.writeTimeline")
	if err != nil {
		return bcResult{}, err
	}

	// The victim is shard 0's primary: the lowest-addressed replica, the
	// same deterministic rule publishers and consumers route by. In the
	// unreplicated arm that is the shard's only instance — its backlog has
	// no mirror to survive on.
	var victimAddr string
	for _, in := range app.Registry.Instances("social.broker") {
		if in.Meta[shard.MetaShard] != "0" {
			continue
		}
		if victimAddr == "" || in.Addr < victimAddr {
			victimAddr = in.Addr
		}
	}
	var victim *core.Instance
	for _, inst := range app.Instances("social.broker") {
		if inst.Addr == victimAddr {
			victim = inst
		}
	}
	if victim == nil {
		return bcResult{}, fmt.Errorf("brokercrash: no broker instance for shard 0")
	}
	sc := fault.NewScenario(inj)
	sc.At(bcCrashAt, fault.Action("crash(social.broker shard0 primary)", victim.Kill))
	res := bcResult{schedule: sc.String()}

	playCtx, stopPlay := context.WithCancel(ctx)
	defer stopPlay()
	// The first bcPosts arrivals of a Poisson clock at bcRate.
	sched := loadgen.Schedule(loadgen.NewPoisson(bcRate, 29), 2*bcPosts*time.Second/bcRate)[:bcPosts]
	start := time.Now()
	played := sc.Play(playCtx)

	// Open-loop keyed Appends. Every post retries with the same PostID until
	// acked or its budget lapses: the retry republishes the same broker key,
	// so broker-side publish dedup plus consumer idempotency make the
	// crash-window retries safe end to end.
	var mu sync.Mutex
	ackedSet := make(map[string]struct{}, bcPosts)
	retries := 0
	loadgen.RunOpenLoop(ctx, sched, 0, func(ctx context.Context, a loadgen.Arrival) error {
		postID := fmt.Sprintf("p%06d", a.Index+1)
		deadline := time.Now().Add(bcAckBudget)
		req := socialnetwork.AppendTimelineReq{Author: "author", PostID: postID, Ts: 1}
		for {
			cctx, cancel := context.WithTimeout(ctx, bcAttempt)
			err := wt.Call(cctx, "Append", req, nil)
			cancel()
			if err == nil {
				mu.Lock()
				ackedSet[postID] = struct{}{}
				mu.Unlock()
				return nil
			}
			mu.Lock()
			retries++
			mu.Unlock()
			if time.Now().After(deadline) {
				return err // shed, not acked — excluded from the loss account
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
	<-played
	crashWall := start.Add(bcCrashAt)
	res.appended = bcPosts
	res.acked = len(ackedSet)
	res.retries = retries

	// Delivery watch on the probe follower's stored timeline: poll until
	// every acked post is present (recovered) or the set stops growing
	// (whatever is still missing is lost). GroupLag is useless here — the
	// corpse's orphaned copies keep cluster-wide lag nonzero forever — so
	// completeness is judged on delivered state alone.
	timelines, err := app.ShardedRPC("brokercrash", "social.db-timeline")
	if err != nil {
		return res, err
	}
	db := svcutil.DB{Shards: timelines}
	tally := func(ids []string) (delivered, dups int) {
		seen := make(map[string]int, len(ids))
		for _, id := range ids {
			seen[id]++
		}
		for id, n := range seen {
			if n > 1 {
				dups += n - 1
			}
			if _, ok := ackedSet[id]; ok {
				delivered++
			}
		}
		return delivered, dups
	}
	watchEnd := time.Now().Add(bcConverge)
	lastGrow := time.Now()
	lastLen := -1
	for {
		ids, _ := probeTimeline(db) // a failed read is an empty poll
		res.delivered, res.dups = tally(ids)
		if res.delivered == res.acked {
			res.recovered = true
			res.recovery = time.Since(crashWall)
			break
		}
		if len(ids) != lastLen {
			lastLen = len(ids)
			lastGrow = time.Now()
		}
		if time.Now().After(watchEnd) || time.Since(lastGrow) > bcSettled {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	res.lost = res.acked - res.delivered
	return res, nil
}

// BrokerCrash contrasts the partitioned broker tier with and without
// per-shard replication under a mid-fanout broker crash. In both arms the
// producer contract is identical — keyed publishes, retries on failure —
// so the arms differ only in what the tier can still serve after the lease
// evicts the corpse: the replicated arm redelivers every acked-but-
// undelivered message from the dead shard's mirror (zero loss, bounded
// recovery), the unreplicated arm loses the dead shard's standing backlog
// outright, quantified in the lost column.
func BrokerCrash() *Report {
	r := &Report{
		ID:    "brokercrash",
		Title: "Broker crash mid-fanout: replicated vs unreplicated partitioned tier (live stack)",
		Header: []string{"arm", "posts", "acked", "retries", "delivered", "lost", "dups",
			"recovered", "recovery"},
	}
	for _, replicated := range []bool{true, false} {
		arm := "unreplicated (2 shards x 1)"
		if replicated {
			arm = "replicated (2 shards x 2)"
		}
		res, err := bcRun(replicated)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("brokercrash %s: %v", arm, err))
			continue
		}
		recovered := "yes"
		recovery := fmt.Sprintf("%.0fms", float64(res.recovery)/1e6)
		if !res.recovered {
			recovered, recovery = "NO", "-"
		}
		r.Rows = append(r.Rows, []string{
			arm, fmt.Sprintf("%d", res.appended), fmt.Sprintf("%d", res.acked),
			fmt.Sprintf("%d", res.retries),
			fmt.Sprintf("%d/%d", res.delivered, res.acked),
			fmt.Sprintf("%d", res.lost), fmt.Sprintf("%d", res.dups),
			recovered, recovery,
		})
		if len(r.Notes) == 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("schedule: %s; lease %v evicts the corpse and re-forms the ring",
				strings.TrimSpace(res.schedule), bcLease))
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("offered %s posts/s against %.0f/s of fan-out drain keeps a standing backlog on both shards when the crash lands at %v",
			qpsStr(bcRate), float64(bcStoreSlots)/(bcFollowers*bcStoreRTT.Seconds()), bcCrashAt),
		"acked ⇒ mirrored: the replicated arm's publishes reach every live replica of the owning shard before Append returns, so the mirror redelivers the corpse's queued and leased messages once consumers fail over — exactly-once at the timeline via key dedup and unique prepends",
		"delivery is asserted on the probe follower's stored timeline, not on backlog drain: the dead broker keeps its queue memory, so cluster-wide lag counts orphaned copies forever")
	return r
}
