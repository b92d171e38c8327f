package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"dsb/internal/core"
	"dsb/internal/trace"
	"dsb/internal/transport"
)

// workload is one set of inputs the benchmark runs. Its op counts are
// constants, never scaled by time: a rep does a fixed amount of work, so the
// parent commit and a change walk the identical state trajectory and a
// faster tree cannot feed its speed back into bigger timelines or queues.
type workload struct {
	name string
	// why is the sentence on why the workload exists (BENCHMARK.json).
	why string
	// shape states loop kind, client count or rate, and sizes, for the
	// output header and the README.
	shape string
	// generate builds every input — seed data, op lists, arrival schedule —
	// from the seed, before any clock starts.
	generate func(seed uint64) inputs
}

// inputs is what generate returns: the fixed work of one rep.
type inputs interface {
	// counts is the number of ops per closed-loop client; an open-loop
	// workload has one entry, its arrival count.
	counts() []int
	// due is the open-loop arrival schedule as offsets from the rep's start
	// (nil for a closed loop).
	due() []time.Duration
	// warmCounts is the number of warm-up ops per client: the warm-up is a
	// closed loop like the measured one, so set-up time meets the host the
	// same way the measurement does.
	warmCounts() []int
	// boot starts a fresh stack on app and seeds it, calling lap after each
	// phase of that (boot, each kind of seed data) so set-up time is known
	// phase by phase.
	boot(app *core.App, lap func()) (stack, error)
}

// stack is one booted and seeded deployment.
type stack interface {
	// warm executes warm-up op i of client, checking it like do.
	warm(ctx context.Context, client, i int) error
	// do executes op i of client and checks its output; a failed call and a
	// wrong output are both errors.
	do(ctx context.Context, client, i int) error
	// drain waits until asynchronous work the ops started has finished; it
	// is part of the measured section.
	drain() error
	// verify runs the checks that need the whole rep (after the clock
	// stopped).
	verify() error
	close()
}

// openLoopWorkers is how many arrivals of an open loop run at once. An
// arrival that finds them all busy waits in the generator's queue, which
// holds the whole schedule, and its latency runs from its due time all the
// same: a stall of the host, however long, shows as latency and never as a
// refused arrival, which would say something about the host, not the tree.
const openLoopWorkers = 256

// maxTracedOps caps each client's share of the two reps of a traced run (the
// first ops of the same list): the spans of a whole wire_echo rep would not
// fit in memory, and per-op shares do not need more.
const maxTracedOps = 6000

// repResult is what one rep measured.
type repResult struct {
	attempted, failed int
	// laps are the durations of the set-up phases, in order.
	laps           []time.Duration
	elapsed, drain time.Duration
	cpu            time.Duration
	lat            []int64 // every op's latency, sorted ascending
	lag            []int64 // sorted ascending, open loop only
	// segs[client][k] is segment k of that client's ops, and cpuPerOp[w] the
	// CPU used per op in the w-th CPU window.
	segs           [][]segment
	cpuPerOp       []float64
	mallocs, bytes uint64
	gcCPU          time.Duration
}

func (r *repResult) throughput() float64 {
	return float64(r.attempted-r.failed) / r.elapsed.Seconds()
}

func (r *repResult) setup() time.Duration {
	var sum time.Duration
	for _, l := range r.laps {
		sum += l
	}
	return sum
}

// segmentOps is how many consecutive ops of one client make a segment: a
// tenth of the client's list — about a third of a second, the size of the
// host's shorter bursts — and at least 1 000.
func segmentOps(perClient int) int { return max(1000, perClient/10) }

// runRep runs one rep: boot a fresh stack (tracing on only when rec is set),
// seed, warm up with the workload's clients, collect garbage, then execute
// the fixed op list — only each client's first limit ops when limit is
// positive — drain, stop the clock, verify and close. A positive capacity turns an open-loop schedule into a
// closed loop of that many clients over the same ops (the sizing pass).
func runRep(in inputs, rec *recorder, limit, capacity int) (res repResult, err error) {
	opts := core.Options{DisableTracing: rec == nil}
	if rec != nil {
		opts.TraceBuffer = 1 << 16
		opts.ClientMiddleware = []transport.Middleware{rec.middleware}
	}
	lapStart := time.Now()
	lap := func() {
		now := time.Now()
		res.laps = append(res.laps, now.Sub(lapStart))
		lapStart = now
	}
	app := core.NewApp("bench", opts)
	defer app.Close()
	st, err := in.boot(app, lap)
	if err != nil {
		return res, fmt.Errorf("boot: %w", err)
	}
	defer st.close()
	bg := context.Background()
	warmCounts := in.warmCounts()
	// first keeps the first error any op returned, for the message.
	var first atomic.Pointer[error]
	warm := runClosed(warmCounts, warmCounts[0]+1, func(client, i int) error {
		err := st.warm(bg, client, i)
		if err != nil {
			first.CompareAndSwap(nil, &err)
		}
		return err
	})
	if warm.failed > 0 {
		return res, fmt.Errorf("warm-up: %d ops failed, the first with: %w", warm.failed, *first.Load())
	}
	if err := st.drain(); err != nil {
		return res, fmt.Errorf("warm-up drain: %w", err)
	}
	lap()

	counts, due := in.counts(), in.due()
	if limit > 0 {
		counts = append([]int(nil), counts...)
		for c := range counts {
			counts[c] = min(counts[c], limit)
		}
		if due != nil {
			due = due[:counts[0]]
		}
	}
	if rec != nil {
		// Spans of seeding and warm-up are not the workload's.
		app.FlushTraces()
		app.Traces.Reset()
		rec.start()
	}
	var wrong atomic.Pointer[error]
	do := func(client, i int) error {
		var err error
		if rec == nil {
			err = st.do(bg, client, i)
		} else {
			// The benchmark owns the root span of every op: the tiers' spans
			// hang under this identity, so one op is one trace.
			id := opTraceID(client, i)
			ctx := trace.NewContext(bg, trace.SpanContext{TraceID: id, SpanID: trace.SpanID(id)})
			t0 := time.Now()
			err = st.do(ctx, client, i)
			rec.root(id, t0, time.Now(), err)
		}
		if err != nil {
			first.CompareAndSwap(nil, &err)
			if errors.Is(err, errCheck) {
				wrong.CompareAndSwap(nil, &err)
			}
		}
		return err
	}

	segOps := segmentOps(counts[0])
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUTime(), cpuTime()
	start := time.Now()
	var sec section
	switch {
	case due != nil && capacity > 0:
		each := make([]int, capacity)
		for c := range each {
			each[c] = len(due) / capacity
		}
		segOps = segmentOps(each[0])
		sec = runClosed(each, segOps, func(client, i int) error { return do(0, i*capacity+client) })
	case due != nil:
		sec = runOpen(due, segOps, openLoopWorkers, func(i int) error { return do(0, i) })
	default:
		sec = runClosed(counts, segOps, do)
	}
	sent := time.Now()
	derr := st.drain()
	res.elapsed = time.Since(start)
	res.drain = time.Since(sent)
	res.cpu = cpuTime() - cpu0
	res.gcCPU = gcCPUTime() - gc0
	runtime.ReadMemStats(&m1)
	if rec != nil {
		rec.stop()
		app.FlushTraces()
		rec.tiers = tierTimes(app.Traces)
	}
	res.mallocs, res.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.segs, res.cpuPerOp = sec.segments(segOps), sec.cpuPerOp()
	for _, lat := range sec.lat {
		res.lat = append(res.lat, lat...)
	}
	res.attempted, res.failed, res.lag = len(res.lat), sec.failed, sec.lag
	if e := first.Load(); e != nil {
		fmt.Printf("note: %d ops failed, the first with: %v\n", sec.failed, *e)
	}
	slices.Sort(res.lat)
	slices.Sort(res.lag)
	if w := wrong.Load(); w != nil {
		return res, fmt.Errorf("output check: %w", *w)
	}
	if derr != nil {
		return res, fmt.Errorf("drain: %w", derr)
	}
	if err := st.verify(); err != nil {
		return res, fmt.Errorf("output check: %w", err)
	}
	return res, nil
}

func opTraceID(client, i int) trace.TraceID {
	return trace.TraceID(uint64(client+1)<<32 | uint64(i+1))
}

// gcCPUTime reads the CPU time the collector has used so far.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}
