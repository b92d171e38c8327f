package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/loadgen"
	"dsb/internal/mq"
	"dsb/internal/registry"
	"dsb/internal/rpc"
	"dsb/internal/shard"
)

// Push experiment: what does a standing push stream buy over a consume poll
// loop? Both arms run one consumer group against the same two-shard broker
// tier at the same offered publish rate; the poll arm long-polls Consume
// (paying a broker RPC per sweep, empty or not, plus the per-sweep grace),
// the push arm holds one standing stream per shard primary and the broker
// sends messages as they arrive. Delivery latency is measured from the publish timestamp each
// message carries; the broker tier counts every Consume RPC it serves,
// split into productive and idle (empty) polls — the polling tax the run's
// trailing idle window makes visible. Both arms drive the raw mq surface;
// the durability contract under push delivery (acked ⇒ delivered, zero
// loss with mirrors) is the brokercrash experiment's, whose consumers are
// mq.Serve workers.
const (
	pushShards = 2
	pushMsgs   = 150
	// pushRate spaces publishes on a Poisson clock: fast enough to finish
	// inside a test run, slow enough that most poll-arm deliveries wait out
	// part of a sweep.
	pushRate = 300.0
	// pushPollWait is the poll arm's per-sweep wait budget (split across
	// shards by the partitioned client).
	pushPollWait = 50 * time.Millisecond
	// pushIdleWindow keeps consumers running after the last delivery: the
	// window where a poller keeps burning broker RPCs and push sits silent.
	pushIdleWindow = 500 * time.Millisecond
	pushLease      = 30 * time.Second
)

// pushResult is one arm's accounting.
type pushResult struct {
	mode        string
	delivered   int
	p50, p99    time.Duration
	consumeRPCs int // Consume RPCs the broker tier served, total
	idlePolls   int // the subset that returned empty — pure polling tax
}

// pushRig is a bare partitioned broker tier (no app on top): brokers behind
// RPC servers with a Consume-counting interceptor, grouped into shards.
type pushRig struct {
	bus         *mq.Partitioned
	consumeRPCs atomic.Int64
	idlePolls   atomic.Int64
	close       func()
}

func bootPushRig() (*pushRig, error) {
	rig := &pushRig{}
	net := rpc.NewMem()
	reg := registry.New()
	var servers []*rpc.Server
	for s := 0; s < pushShards; s++ {
		b := mq.NewBroker()
		srv := rpc.NewServer("broker")
		srv.Use(func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
			out, err := next(ctx, payload)
			if ctx.Method == "Consume" {
				rig.consumeRPCs.Add(1)
				if resp, ok := ctx.TypedReply().(*mq.ConsumeResp); err == nil && ok && !resp.OK {
					rig.idlePolls.Add(1)
				}
			}
			return out, err
		})
		mq.RegisterService(srv, b)
		addr, err := srv.Start(net, fmt.Sprintf("broker/s%d", s))
		if err != nil {
			return nil, err
		}
		reg.RegisterInstance("broker", addr, map[string]string{shard.MetaShard: strconv.Itoa(s)})
		servers = append(servers, srv)
	}
	router := shard.NewRouter(net, "broker")
	router.Sync(reg.Instances("broker"))
	rig.bus = mq.NewPartitioned(router)
	rig.close = func() {
		for _, srv := range servers {
			srv.Close()
		}
		router.Close()
	}
	return rig, nil
}

// pushRun drives one arm: a Poisson publisher against one consumer in the
// given mode, then a trailing idle window with the consumer still running.
func pushRun(mode string) (pushResult, error) {
	rig, err := bootPushRig()
	if err != nil {
		return pushResult{}, err
	}
	defer rig.close()
	ctx := context.Background()
	if err := rig.bus.Subscribe(ctx, "t", "g", mq.QueueConfig{}); err != nil {
		return pushResult{}, err
	}

	var mu sync.Mutex
	var lats []time.Duration
	record := func(m mq.ConsumeResp) {
		var sent int64
		if codec.Unmarshal(m.Body, &sent) != nil {
			return
		}
		mu.Lock()
		lats = append(lats, time.Duration(time.Now().UnixNano()-sent))
		mu.Unlock()
		rig.bus.Ack(ctx, "t", "g", m) //nolint:errcheck // one-way settle
	}
	delivered := func() int { mu.Lock(); defer mu.Unlock(); return len(lats) }

	cctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	switch mode {
	case "push":
		d, err := rig.bus.Push(cctx, "t", "g", pushLease)
		if err != nil {
			stop()
			return pushResult{}, err
		}
		go func() {
			defer wg.Done()
			defer d.Close()
			for {
				m, err := d.Next()
				if err != nil {
					return // session closed
				}
				record(m)
			}
		}()
	case "poll":
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				m, err := rig.bus.Consume(cctx, "t", "g", pushLease, pushPollWait)
				if err != nil || !m.OK {
					continue
				}
				record(m)
			}
		}()
	default:
		stop()
		return pushResult{}, fmt.Errorf("push: unknown mode %q", mode)
	}

	// Poisson publisher, the first pushMsgs arrivals at pushRate: every
	// message carries its send time.
	sched := loadgen.Schedule(loadgen.NewPoisson(pushRate, 17), 2*pushMsgs*time.Second/pushRate)[:pushMsgs]
	pub := loadgen.RunOpenLoop(ctx, sched, 0, func(ctx context.Context, a loadgen.Arrival) error {
		body, _ := codec.Marshal(time.Now().UnixNano())
		_, err := rig.bus.PublishKey(ctx, "t", fmt.Sprintf("m%d", a.Index), body)
		return err
	})
	if pub.Errors > 0 {
		stop()
		wg.Wait()
		return pushResult{}, fmt.Errorf("push: %d of %d publishes failed", pub.Errors, pushMsgs)
	}
	// Wait for the drain, then hold the consumer through an idle window —
	// where the polling tax keeps accruing and push costs nothing.
	drainEnd := time.Now().Add(10 * time.Second)
	for delivered() < pushMsgs && time.Now().Before(drainEnd) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(pushIdleWindow)
	stop()
	wg.Wait()

	res := pushResult{
		mode:        mode,
		delivered:   delivered(),
		consumeRPCs: int(rig.consumeRPCs.Load()),
		idlePolls:   int(rig.idlePolls.Load()),
	}
	mu.Lock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		res.p50, res.p99 = lats[n/2], lats[n*99/100]
	}
	mu.Unlock()
	return res, nil
}

// Push contrasts push-based and poll-based consumer delivery at equal
// offered throughput.
func Push() *Report {
	r := &Report{
		ID:     "push",
		Title:  "Push vs poll consumer delivery: latency and the polling tax (live stack)",
		Header: []string{"arm", "delivered", "p50", "p99", "consume RPCs", "idle polls"},
	}
	for _, mode := range []string{"push", "poll"} {
		res, err := pushRun(mode)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("push %s arm: %v", mode, err))
			continue
		}
		r.Rows = append(r.Rows, []string{
			res.mode, fmt.Sprintf("%d/%d", res.delivered, pushMsgs),
			ms(res.p50), ms(res.p99),
			fmt.Sprintf("%d", res.consumeRPCs), fmt.Sprintf("%d", res.idlePolls),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%s msgs at %s/s into a %d-shard tier; consumers then idle %v — the window where polling keeps paying a broker RPC per sweep and push pays none",
			fmt.Sprintf("%d", pushMsgs), qpsStr(pushRate), pushShards, pushIdleWindow),
		"push holds one standing stream per shard primary; delivery rides the stream's credit window (backpressure with at most a window leased ahead), settles stay Ack/Nack by key")
	return r
}
