// Command benchmark is the repository's performance ledger: four workloads
// measured end to end, a ladder of per-layer rungs measured from outside
// through each layer's exported API, and a traced run that says which tier
// the time went to. See README.md in this directory.
//
//	go run ./benchmark -workload social_read            # end-to-end metrics
//	go run ./benchmark -workload social_read -trace 1   # per-layer metrics
//	go run ./benchmark -aa 5                            # same-code agreement
//
// The last line of standard output is one JSON object with the run's
// metrics; the process exits non-zero when an output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef is one metric's contract: its unit, which direction is better,
// and for end-to-end metrics the bound — the share of the parent's median
// by which it may get worse before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd is what a user of the system would see, the same six on every
// workload. latency_p99_us is not among them: on the reference host its
// median moved by up to 38 % between two batches of ten runs of identical
// code, more than any bound may be, so it is a per-layer metric (README
// "Noise"); every run still prints it.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"success_share", "share", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

var workloads = []workload{
	{
		name:  "social_read",
		why:   "the read path users hit most: rest + JSON, eight inter-tier calls, batch post decode, kv hits through svcutil.ReadPath; no store writes, no mq",
		shape: fmt.Sprintf("closed loop, %d clients x %d GET /timeline/{user} via the REST front door on socialnetwork.Config{DisableDegradation: true}; %d users, %d follows, %d seeded posts, %d warm-up reads", socialReadClients, socialReadOps, socialUsers, socialUsers*socialFollowsEach, socialSeedPosts, socialReadWarm),
		generate: func(seed uint64) inputs {
			return generateSocial(seed, false)
		},
	},
	{
		name:  "social_mixed",
		why:   "same app, other use: writes invalidate the caches social_read lives on, fan-out prepends per follower, stores behind shard.Router write to two replicas, an open loop turns slowness into queueing",
		shape: fmt.Sprintf("open loop, Poisson %d arrivals/s x %d arrivals, 90%% ReadTimeline.Read / 10%% Compose.Compose over RPC on socialnetwork.Config{Shards: 2, ShardReplicas: 2, DisableDegradation: true}; at most %d running, later arrivals queue; %d warm-up ops", socialMixedRate, socialMixedArrivals, openLoopWorkers, socialMixedWarm),
		generate: func(seed uint64) inputs {
			return generateSocial(seed, true)
		},
	},
	{
		name:  "ecommerce_checkout",
		why:   "write-heavy: the per-hop tax paid most often per op and strictly in sequence, docstore Put and mq publish/consume/ack do real work; no rest, almost no cache reads",
		shape: fmt.Sprintf("closed loop, %d clients with disjoint buyers x %d checkouts (Cart.Add + Orders.Place) on ecommerce.Config{}; %d items, %d buyers, %d warm-up checkouts; the rep ends when the commit backlog is empty", ecomClients, ecomOps, ecomItems, ecomBuyers, ecomWarm),
		generate: func(seed uint64) inputs {
			return generateEcom(seed)
		},
	},
	{
		name:  "wire_echo",
		why:   "one hop, no application logic: the small-message point where codec + rpc + transport + lb are all of the cost and stores, rest, mq do nothing",
		shape: fmt.Sprintf("closed loop, %d clients x %d typed echoes of a socialnetwork.Post over core.App.StartRPC + svcutil.Handle / core.App.RPC; in-memory network; %d warm-up calls", echoClients, echoOps, echoWarm),
		generate: func(seed uint64) inputs {
			return generateEcho(seed)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repSeconds is what one rep measures at the reference machine's speed; the
// op counts are sized to it once (README "Sizing"). -seconds only chooses
// how many such reps a run makes, never how much work a rep does.
const repSeconds = 3.5

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code: 0 when the run measured and every output
// check passed, 1 when a check or the run failed, 2 on a usage error.
func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: social_read, social_mixed, ecommerce_checkout, wire_echo")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 5*repSeconds, "seconds of measurement: the run makes seconds/3.5 reps of fixed work")
		traced   = fs.Int("trace", 0, "1 = the traced run: per-layer metrics (layer ladder, tier self times) instead of end-to-end ones")
		spans    = fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
		capacity = fs.Int("capacity", 0, "sizing pass: run an open-loop workload's ops as a closed loop of this many clients, to read its capacity off throughput_rps")
		aa       = fs.Int("aa", 0, "run two interleaved sets of N runs of every workload and compare them against the bounds")
		spec     = fs.Bool("spec", false, "print BENCHMARK.json as this tree defines it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Fixed so that the number of cores the host happens to show does not
	// change what is measured beyond 4.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if *spec {
		return printSpec()
	}
	if *aa > 0 {
		return runAA(*aa, *seed)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.name, w.why)
		}
		return 2
	}
	// A hung stack must not hang the caller: every run ends within 180 s.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s, giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()
	fmt.Printf("workload %s: %s\n", w.name, w.shape)
	fmt.Printf("machine: cores=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	in := w.generate(*seed)
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(in, *spans)
	} else {
		reps := max(1, int(math.Round(*seconds/repSeconds)))
		fmt.Printf("seed %d, %d reps of %d ops\n", *seed, reps, totalOps(in))
		res, err = runUntraced(in, reps, *capacity)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printSpec prints the contract the driver reads, BENCHMARK.json, from the
// same tables the runs print their metrics from.
func printSpec() int {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type load struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []load   `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: int(math.Round(5 * repSeconds)),
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, load{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, metric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayerDefs() {
		spec.PerLayer = append(spec.PerLayer, metric{m.name, m.unit, m.better, nil})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func totalOps(in inputs) int {
	n := 0
	for _, c := range in.counts() {
		n += c
	}
	return n
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latUs reads a percentile of a sorted latency sample in microseconds; a
// percentile that lands on a failed op is infinitely slow.
func latUs(sorted []int64, p float64) float64 { return nsToUs(percentile(sorted, p)) }

// errCheck marks an op whose call succeeded but whose output was wrong.
var errCheck = errors.New("wrong output")

// runUntraced makes the reps of one run and reports the end-to-end
// metrics, printing every rep's own numbers as diagnostics.
func runUntraced(in inputs, reps, capacity int) (result, error) {
	var q quietRun
	var tput []float64
	attempted, failed := 0, 0
	for r := 0; r < reps; r++ {
		rep, err := runRep(in, nil, 0, capacity)
		if err != nil {
			return result{}, fmt.Errorf("rep %d: %w", r+1, err)
		}
		// The next rep's stack should not grow the heap on this one's garbage.
		runtime.GC()
		attempted += rep.attempted
		failed += rep.failed
		tput = append(tput, rep.throughput())
		fmt.Printf("rep %d: setup %.3f s, measured %.3f s (drain %.1f ms), %.1f ops/s, p50 %.1f us, p99 %.1f us, cpu %.2f us/op, %d of %d ops failed",
			r+1, rep.setup().Seconds(), rep.elapsed.Seconds(), float64(rep.drain)/1e6, tput[r], latUs(rep.lat, 50), latUs(rep.lat, 99),
			us(rep.cpu)/float64(rep.attempted), rep.failed, rep.attempted)
		if len(rep.lag) > 0 {
			fmt.Printf(", generator lag p99 %.1f us", latUs(rep.lag, 99))
		}
		fmt.Println()
		q.add(&rep)
	}
	fmt.Printf("rep_spread %.4f ((max-min)/median of throughput over %d reps); latency percentiles over %d ops, %d beyond p99\n",
		repSpread(tput), reps, q.attempted, q.attempted/100)
	vals := q.metrics()
	vals["success_share"] = float64(attempted-failed) / float64(attempted)
	vals["throughput_rps"] *= vals["success_share"]
	vals["peak_rss_mb"] = peakRSSMB()
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for _, m := range endToEnd {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
		fmt.Printf("%-16s %14.4f %-6s %s is better, bound %g\n", m.name, vals[m.name], m.unit, m.better, m.bound)
	}
	fmt.Printf("%-16s %14.4f %-6s lower is better, not bounded (a per-layer metric)\n", "latency_p99_us", vals["latency_p99_us"], "us")
	return res, nil
}

// nsToUs converts a latency to microseconds; a failed op is infinitely slow.
func nsToUs(ns int64) float64 {
	if ns == failedLat {
		return math.MaxFloat64 // JSON has no infinity
	}
	return float64(ns) / 1e3
}
