package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	sample := make([]int64, 100)
	for i := range sample {
		sample[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(sample, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of an empty sample = %d, want 0", got)
	}
	// A failed op is infinitely slow: two failures in 100 ops own the p99.
	withFailures := append(sample[:98:98], failedLat, failedLat)
	if got := percentile(withFailures, 99); got != failedLat {
		t.Errorf("p99 with 2%% failures = %d, want failedLat", got)
	}
	if got := latUs(withFailures, 50); got != 0.05 {
		t.Errorf("p50 = %v us, want 0.05", got)
	}
	if got := latUs(withFailures, 99); got != math.MaxFloat64 {
		t.Errorf("p99 on a failed op = %v, want MaxFloat64", got)
	}
}

func TestRepSpreadAndMedian(t *testing.T) {
	reps := []float64{5900, 6400, 6050, 6380, 5700}
	if got, want := repSpread(reps), (6400.0-5700.0)/6050.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("repSpread = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuietTakesEachPieceFromItsBestRep: a burst that slows one segment of
// one rep, and another segment of another rep, leaves no trace; what both
// reps show stays.
func TestQuietTakesEachPieceFromItsBestRep(t *testing.T) {
	seg := func(ms int, lat ...int64) segment {
		s := segment{dur: time.Duration(ms) * time.Millisecond}
		for _, l := range lat {
			s.lat = append(s.lat, l*1000)
			s.sum += float64(l * 1000)
		}
		return s
	}
	lap := func(ms ...int) (out []time.Duration) {
		for _, m := range ms {
			out = append(out, time.Duration(m)*time.Millisecond)
		}
		return out
	}
	reps := []repResult{
		{attempted: 8, laps: lap(100, 300), drain: 2 * time.Millisecond, cpuPerOp: []float64{50, 40},
			segs: [][]segment{{seg(250, 100, 110), seg(400, 180, 2000)}, {seg(260, 100, 900), seg(250, 100, 120)}}},
		{attempted: 8, laps: lap(150, 200), drain: 1 * time.Millisecond, cpuPerOp: []float64{40, 60},
			segs: [][]segment{{seg(500, 200, 3000), seg(250, 100, 130)}, {seg(240, 100, 800), seg(260, 100, 900)}}},
	}
	var q quietRun
	for i := range reps {
		q.add(&reps[i])
	}
	got := q.metrics()
	want := map[string]float64{
		"throughput_rps": 8 / 0.501, // client 0: 250+250 ms, plus the 1 ms drain
		"latency_p50_us": 100,       // of 100 100 100 100 110 120 130 800
		"latency_p99_us": 800,       // the slow op both reps show
		"cpu_us_per_op":  40,
		"setup_s":        0.3,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, the spread the acceptance
// check computes.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
	// [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([3.0, 1.0, 4.0, 1.5, 9.0], n=4)
	// [1.25, 3.0, 6.5]
	q1, q3 = quartiles([]float64{3.0, 1.0, 4.0, 1.5, 9.0})
	if q1 != 1.25 || q3 != 6.5 {
		t.Errorf("quartiles = %v, %v, want 1.25, 6.5", q1, q3)
	}
}

// TestOpenLoopTimesFromDueTime stalls the first op of an open loop that has
// one worker: the ops queued behind it must read the stall in their latency
// (timed from when they were due), while the schedule itself does not move
// (they were dispatched on time).
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	sec := runOpen(due, 4, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if sec.failed != 0 {
		t.Fatalf("%d ops failed", sec.failed)
	}
	for i := 1; i < len(due); i++ {
		if lag := time.Duration(sec.lag[i]); lag > stall/3 {
			t.Errorf("op %d was dispatched %v late: the stall moved the schedule", i, lag)
		}
		if lat, floor := time.Duration(sec.lat[0][i]), stall-due[i]; lat < floor {
			t.Errorf("op %d latency %v hides the stall, want at least %v from its due time", i, lat, floor)
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	sec := runClosed([]int{3, 2}, 2, func(client, i int) error {
		if client == 1 && i == 0 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if len(sec.lat[0]) != 3 || len(sec.lat[1]) != 2 || sec.failed != 1 {
		t.Fatalf("got latencies %v and %d failures, want 3+2 and 1", sec.lat, sec.failed)
	}
	if sec.lat[1][0] != failedLat {
		t.Error("the failed op does not count as infinitely slow")
	}
}

// TestInputsDeterministic: the same seed gives the same inputs — seed data,
// op lists and arrival schedule — and another seed gives others.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.generate(7), w.generate(7), w.generate(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
		if !reflect.DeepEqual(a.counts(), c.counts()) {
			t.Errorf("%s: op counts depend on the seed: %v vs %v", w.name, a.counts(), c.counts())
		}
	}
}

// TestQuotaIsExact: a quota list holds each item in proportion to its weight
// whatever the seed; only the order differs.
func TestQuotaIsExact(t *testing.T) {
	weights := zipfWeights(50, 0.9)
	count := func(seed uint64) []int {
		in := generateSocial(seed, true)
		reads := make([]int, socialUsers)
		for _, op := range in.ops[0] {
			if op.kind == opRead {
				reads[op.user]++
			}
		}
		return reads
	}
	if !reflect.DeepEqual(count(1), count(2)) {
		t.Error("two seeds ask different users for different numbers of reads")
	}
	total := 0
	for _, c := range quotaCounts(weights, 1000, 30) {
		if c > 30 {
			t.Errorf("an item got %d draws, above the limit 30", c)
		}
		total += c
	}
	if total != 1000 {
		t.Errorf("quota sums to %d, want 1000", total)
	}
}

func TestSocialGraphShape(t *testing.T) {
	in := generateSocial(3, false)
	if len(in.follows) != socialUsers*socialFollowsEach {
		t.Fatalf("%d follow edges, want %d", len(in.follows), socialUsers*socialFollowsEach)
	}
	out := make([]int, socialUsers)
	seen := make(map[[2]int32]bool)
	for _, f := range in.follows {
		if f[0] == f[1] || seen[f] {
			t.Fatalf("edge %v follows self or repeats", f)
		}
		seen[f] = true
		out[f[0]]++
	}
	for u, n := range out {
		if n != socialFollowsEach {
			t.Fatalf("user %d follows %d, want %d", u, n, socialFollowsEach)
		}
	}
}

// brokenInputs is a workload whose every op returns a wrong output.
type brokenInputs struct{}

func (brokenInputs) warmCounts() []int                     { return []int{1} }
func (brokenInputs) counts() []int                         { return []int{4} }
func (brokenInputs) due() []time.Duration                  { return nil }
func (brokenInputs) boot(*core.App, func()) (stack, error) { return brokenStack{}, nil }

type brokenStack struct{}

func (brokenStack) warm(context.Context, int, int) error { return nil }
func (brokenStack) do(context.Context, int, int) error {
	return fmt.Errorf("%w: reply does not match", errCheck)
}
func (brokenStack) drain() error  { return nil }
func (brokenStack) verify() error { return nil }
func (brokenStack) close()        {}

// TestFailedCheckExitsNonZero: a wrong output is fatal — the run prints no
// result and exits non-zero — and so is an unknown workload.
func TestFailedCheckExitsNonZero(t *testing.T) {
	workloads = append(workloads, workload{name: "broken", generate: func(uint64) inputs { return brokenInputs{} }})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	if code := run([]string{"-workload", "broken", "-seconds", "1"}); code != 1 {
		t.Errorf("a run with wrong outputs exited %d, want 1", code)
	}
	if code := run([]string{"-workload", "nonesuch"}); code != 2 {
		t.Errorf("an unknown workload exited %d, want 2", code)
	}
}

func TestTierOf(t *testing.T) {
	for service, want := range map[string]string{
		"social.mc-posts": "mc", "ecom.db-orders": "db", "social.readTimeline": "readTimeline",
		"bench.echo": "echo", "ecom.broker": "broker", "social.search-index1": "other", "client": "other",
	} {
		if got := tierOf(service); got != want {
			t.Errorf("tierOf(%q) = %q, want %q", service, got, want)
		}
	}
}

// TestSelfTimeSubtractsUnionOfChildren: two overlapping child calls are not
// subtracted twice, and a span re-attached by Tree is not a child at all.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	span := func(id, parent trace.SpanID, from, to int) *trace.Node {
		return &trace.Node{Span: trace.Span{SpanID: id, Parent: parent, Start: at(from), Duration: at(to).Sub(at(from))}}
	}
	n := span(1, 0, 0, 100)
	n.Children = []*trace.Node{span(2, 1, 10, 50), span(3, 1, 30, 70), span(4, 99, 0, 100)}
	if got, want := covered(n), 60*time.Microsecond; got != want {
		t.Errorf("children cover %v of the span, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the contract the driver
// reads, in step with what the program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if want := math.Round(5 * repSeconds); spec.RunSeconds != want {
		t.Errorf("run_seconds = %v, want %v (5 reps)", spec.RunSeconds, want)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q / %q in code", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in code", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayerDefs(), false)
}
