package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dsb/internal/codec"
	"dsb/internal/metrics"
	"dsb/internal/rpc"
	"dsb/internal/services/socialnetwork"
)

// Knobs for the wirespeed experiment: a paced open(ish) loop at just over
// 10k req/s — the load level at which the paper's Figure 16 frames RPC
// processing as a fraction of total cycles — split across a few phased
// workers so pacing survives time.Sleep granularity.
const (
	wirespeedRate     = 10500 // target req/s across all workers
	wirespeedWorkers  = 4
	wirespeedRequests = 6000 // per arm
	wirespeedCalIters = 5000
	wirespeedCalRuns  = 5
)

// wirespeedPost is the benchmark payload: a realistic composed post, the
// hot message type on the Social Network's compose/read path.
func wirespeedPost() socialnetwork.Post {
	return socialnetwork.Post{
		ID:     "post-0123456789abcdef",
		Author: "wirespeed-author",
		Text: "A medium-length post body with enough text to make the string " +
			"copies visible in the codec cost, plus a shortened URL http://s.ly/x1y2z3 " +
			"and a couple of mentions so every field class is populated.",
		Mentions:  []string{"alice", "bob"},
		URLs:      []string{"http://s.ly/x1y2z3"},
		MediaIDs:  []string{"media-42"},
		CreatedAt: 1700000000000000000,
	}
}

// wirespeedServer exposes one echo method per arm; each handler performs
// the arm's decode+encode so a round trip pays the codec at both ends.
func wirespeedServer(n rpc.Network) (*rpc.Server, string, error) {
	s := rpc.NewServer("wirespeed")
	s.Handle("EchoFast", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var p socialnetwork.Post
		if err := codec.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		return ctx.Reply(&p)
	})
	s.Handle("EchoReflect", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		var p socialnetwork.Post
		if err := codec.UnmarshalReflect(payload, &p); err != nil {
			return nil, err
		}
		return codec.MarshalReflect(p)
	})
	addr, err := s.Start(n, "wirespeed:0")
	return s, addr, err
}

type wirespeedArmResult struct {
	p50, p99   time.Duration
	meanWall   time.Duration
	codecPerOp time.Duration // marshal+unmarshal of the payload, one end; 0 if unmeasured
}

// codecShare is the fraction of a request's wall time spent in the codec:
// each round trip pays one marshal+unmarshal at the client and one at the
// server.
func (a wirespeedArmResult) codecShare() float64 {
	if a.meanWall <= 0 {
		return 0
	}
	return float64(2*a.codecPerOp) / float64(a.meanWall)
}

// calibrateCodec times one marshal+unmarshal pair in a tight loop. Timing
// inside each request would add two clock reads per touch — comparable to
// the generated marshaler's entire cost on the VM clocks these experiments
// run on — so the per-op cost is measured out of band and scaled. The
// minimum over several rounds is the estimate: a GC cycle collecting the
// paced run's garbage or a scheduler preemption landing inside one round
// inflates that round only, and the best round is the undisturbed cost.
func calibrateCodec(op func()) time.Duration {
	op() // warm caches and grow scratch buffers outside the timed region
	// Collect the paced arm's garbage now, not during a timed round.
	runtime.GC()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < wirespeedCalRuns; r++ {
		t0 := time.Now()
		for i := 0; i < wirespeedCalIters; i++ {
			op()
		}
		if d := time.Since(t0) / wirespeedCalIters; d < best {
			best = d
		}
	}
	return best
}

// wirespeedCalibrate measures the per-op marshal+unmarshal cost of the
// reflect and generated codec paths on the benchmark payload.
func wirespeedCalibrate() (reflectPerOp, fastPerOp time.Duration) {
	post := wirespeedPost()
	reflectPerOp = calibrateCodec(func() {
		payload, _ := codec.MarshalReflect(post) //nolint:errcheck
		var out socialnetwork.Post
		codec.UnmarshalReflect(payload, &out) //nolint:errcheck
	})
	var calBuf []byte
	fastPerOp = calibrateCodec(func() {
		calBuf, _ = codec.AppendMarshal(calBuf[:0], post) //nolint:errcheck
		var out socialnetwork.Post
		codec.Unmarshal(calBuf, &out) //nolint:errcheck
	})
	return reflectPerOp, fastPerOp
}

// runWirespeedArm drives one arm at the paced rate: workers fire requests
// on a fixed schedule (falling behind queues, it never skips), recording
// wall latency per request. doCall gets the worker's index, for per-worker
// state.
func runWirespeedArm(doCall func(w int) error) (wirespeedArmResult, error) {
	perWorker := wirespeedRequests / wirespeedWorkers
	interval := time.Second * time.Duration(wirespeedWorkers) / time.Duration(wirespeedRate)

	lats := make([][]int64, wirespeedWorkers)
	errs := make([]error, wirespeedWorkers)
	var wg sync.WaitGroup
	for w := 0; w < wirespeedWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Phase-offset the workers so the aggregate arrival stream is
			// even rather than synchronized bursts.
			next := time.Now().Add(interval * time.Duration(w) / time.Duration(wirespeedWorkers))
			for i := 0; i < perWorker; i++ {
				time.Sleep(time.Until(next))
				next = next.Add(interval)
				t0 := time.Now()
				if err := doCall(w); err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	var all []int64
	var wallNS int64
	for w := range lats {
		if errs[w] != nil {
			return wirespeedArmResult{}, errs[w]
		}
		for _, l := range lats[w] {
			wallNS += l
		}
		all = append(all, lats[w]...)
	}
	qs := metrics.Quantiles(all, 50, 99)
	res := wirespeedArmResult{p50: time.Duration(qs[0]), p99: time.Duration(qs[1])}
	if len(all) > 0 {
		res.meanWall = time.Duration(wallNS / int64(len(all)))
	}
	return res, nil
}

// wirespeedArms runs the three arms against one server and returns
// (reflect, fast, pooled). The reflect and generated arms are symmetric —
// CallRaw with an explicit marshal/unmarshal at the client and a matching
// handler at the server — so the only variable is which codec path runs;
// their per-op codec cost comes from calibrateCodec. The pooled arm is the
// production fast path (typed Call, request encoded at the wire into the
// connection's write segment, pooled buffers end to end); its codec work
// happens inside the transport, so it reports wall latency only.
func wirespeedArms() (reflectRes, fastRes, pooledRes wirespeedArmResult, err error) {
	var fail wirespeedArmResult
	n := rpc.NewMem()
	srv, addr, err := wirespeedServer(n)
	if err != nil {
		return fail, fail, fail, err
	}
	defer srv.Close()
	c := rpc.NewClient(n, "wirespeed", addr)
	defer c.Close()
	ctx := context.Background()
	post := wirespeedPost()

	reflectRes, err = runWirespeedArm(func(int) error {
		payload, err := codec.MarshalReflect(post)
		if err != nil {
			return err
		}
		reply, err := c.CallRaw(ctx, "EchoReflect", payload)
		if err != nil {
			return err
		}
		var out socialnetwork.Post
		return codec.UnmarshalReflect(reply, &out)
	})
	if err != nil {
		return fail, fail, fail, err
	}
	reflectRes.codecPerOp, _ = wirespeedCalibrate()

	// One encode scratch per worker: a shared one is overwritten by the next
	// worker's marshal while CallRaw is still copying it to the wire.
	scratch := make([][]byte, wirespeedWorkers)
	fastRes, err = runWirespeedArm(func(w int) error {
		buf, err := codec.AppendMarshal(scratch[w][:0], post)
		if err != nil {
			return err
		}
		scratch[w] = buf
		reply, err := c.CallRaw(ctx, "EchoFast", buf)
		if err != nil {
			return err
		}
		var out socialnetwork.Post
		return codec.Unmarshal(reply, &out)
	})
	if err != nil {
		return fail, fail, fail, err
	}
	_, fastRes.codecPerOp = wirespeedCalibrate()

	pooledRes, err = runWirespeedArm(func(int) error {
		var out socialnetwork.Post
		return c.Call(ctx, "EchoFast", &post, &out)
	})
	if err != nil {
		return fail, fail, fail, err
	}
	return reflectRes, fastRes, pooledRes, nil
}

// Wirespeed measures serialization cost the way the paper's Figure 16
// frames RPC acceleration: what fraction of a request's cycles go to
// marshaling, and what a faster codec path does to latency at 10k+ req/s.
// The reflect arm is the pre-codegen state (reflect plans both ways); the
// generated arm swaps in the registered fast-path marshalers on identical
// bytes; the pooled arm is the full production path with the request
// encoded straight into the connection's write segment.
func Wirespeed() *Report {
	r := &Report{
		ID:     "wirespeed",
		Title:  "Serialization share and echo latency: reflect vs generated codec (live, in-memory transport)",
		Header: []string{"arm", "p50", "p99", "codec/op", "codec share"},
	}
	reflectRes, fastRes, pooledRes, err := wirespeedArms()
	if err != nil {
		r.Notes = append(r.Notes, "wirespeed: "+err.Error())
		return r
	}
	us := func(d time.Duration) string { return fmt.Sprintf("%.1fus", float64(d)/1e3) }
	row := func(label string, a wirespeedArmResult, perOp, share string) []string {
		return []string{label, us(a.p50), us(a.p99), perOp, share}
	}
	r.Rows = append(r.Rows,
		row("reflect", reflectRes, us(reflectRes.codecPerOp), pct(reflectRes.codecShare())),
		row("generated", fastRes, us(fastRes.codecPerOp), pct(fastRes.codecShare())),
		row("generated+pooled (typed Call)", pooledRes, "-", "-"),
	)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"load: %d req/s paced across %d workers, %d requests per arm, Post payload; share = 2 x codec/op / mean wall (client + server each pay one marshal+unmarshal)",
		wirespeedRate, wirespeedWorkers, wirespeedRequests))
	if fastRes.codecPerOp > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"generated marshalers cut per-request serialization %.1fx (%s -> %s per marshal+unmarshal) and its share of wall time %s -> %s",
			float64(reflectRes.codecPerOp)/float64(fastRes.codecPerOp),
			us(reflectRes.codecPerOp), us(fastRes.codecPerOp),
			pct(reflectRes.codecShare()), pct(fastRes.codecShare())))
	}
	if pooledRes.p50 > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"p50 echo %s (reflect) -> %s (typed fast path)", us(reflectRes.p50), us(pooledRes.p50)))
	}
	return r
}
