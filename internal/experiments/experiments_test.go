package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"dsb/internal/graph"
	"dsb/internal/vtime"
)

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "fig3", "fig9", "fig12", "fig17", "fig21", "fig22c"} {
		if !ids[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
	if _, ok := Lookup("fig3"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found ghost")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:  []string{"a note"},
	}
	s := r.String()
	for _, want := range []string{"== x: demo ==", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

// parseFloat pulls a float out of a cell like "36.3%" or "8.0x".
func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimRight(cell, "%xmsµ")
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	rep := Fig3()
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	shares := map[string]float64{}
	for _, row := range rep.Rows {
		shares[row[0]] = parseFloat(t, row[2])
	}
	// The paper's ordering: social >> memcached > mongodb, nginx lowest-ish.
	if !(shares["socialNetwork"] > shares["memcached"] && shares["memcached"] > shares["nginx"]) {
		t.Fatalf("network share ordering wrong: %v", shares)
	}
	if shares["socialNetwork"] < 25 || shares["socialNetwork"] > 50 {
		t.Fatalf("social share = %.1f, want near 36.3", shares["socialNetwork"])
	}
}

func TestFig10Fig11Shapes(t *testing.T) {
	f10 := Fig10()
	if len(f10.Rows) < 20 {
		t.Fatalf("fig10 rows = %d", len(f10.Rows))
	}
	for _, row := range f10.Rows {
		sum := parseFloat(t, row[2]) + parseFloat(t, row[3]) + parseFloat(t, row[4]) + parseFloat(t, row[5])
		if sum < 98 || sum > 102 {
			t.Fatalf("breakdown for %s/%s sums to %.1f", row[0], row[1], sum)
		}
	}
	f11 := Fig11()
	var mono, micro float64
	for _, row := range f11.Rows {
		if row[1] == "monolith" {
			mono = parseFloat(t, row[2])
		}
		if row[1] == "uniqueID" {
			micro = parseFloat(t, row[2])
		}
	}
	if mono <= micro || mono < 40 {
		t.Fatalf("MPKI: monolith %.1f vs uniqueID %.1f", mono, micro)
	}
}

func TestFig14Shape(t *testing.T) {
	rep := Fig14()
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		c := parseFloat(t, row[1]) + parseFloat(t, row[2]) + parseFloat(t, row[3])
		if c < 98 || c > 102 {
			t.Fatalf("%s cycles sum %.1f", row[0], c)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	rep := Fig16()
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		accel := parseFloat(t, row[1])
		if accel < 10 || accel > 68 {
			t.Fatalf("%s accel = %.1f", row[0], accel)
		}
		if e2e := parseFloat(t, row[3]); e2e < 1.0 {
			t.Fatalf("%s e2e speedup = %.2f < 1", row[0], e2e)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	rep := Fig18()
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig21Shape(t *testing.T) {
	rep := Fig21()
	if len(rep.Rows) != 15 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

// TestTable1CountsServices pins each app's booted service count, so
// EXPERIMENTS.md's Table 1 cannot drift from the code unnoticed.
func TestTable1CountsServices(t *testing.T) {
	rep := Table1()
	want := []struct {
		app      string
		services int
	}{
		{"Social Network", 31}, {"Media Service", 20}, {"E-commerce", 24},
		{"Banking", 24}, {"Swarm (cloud+edge)", 7}, {"TOTAL", 106},
	}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d (notes: %v)", len(rep.Rows), rep.Notes)
	}
	for i, w := range want {
		if row := rep.Rows[i]; row[0] != w.app || parseFloat(t, row[2]) != float64(w.services) {
			t.Errorf("row %d: %s boots %s services, want %s with %d", i, row[0], row[2], w.app, w.services)
		}
	}
}

// TestHeavyExperimentsSmoke runs the three simulator sweeps that are CPU by
// the tens of seconds at the smallest size that still shows each figure's
// crossover; `make bench-smoke` runs them whole.
func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment smoke skipped in -short mode")
	}
	// Fig 9: at 256 images/s only the cloud placement holds the 400ms tail
	// budget; an idle obstacle-avoidance query is faster at the edge.
	p99 := map[string]float64{}
	for _, row := range fig9([]fig9Sweep{{"imageRecognition", []float64{64, 256}}, {"obstacleAvoidance", []float64{1}}}).Rows {
		p99[row[0]+" "+row[1]+" "+row[2]] = parseFloat(t, row[3])
	}
	if edge, cloud := p99["imageRecognition edge 256"], p99["imageRecognition cloud 256"]; edge <= 400 || cloud <= 0 || cloud > 400 {
		t.Errorf("fig9: image recognition at 256 qps: edge p99 %.0fms, cloud %.0fms; want only the cloud inside 400ms", edge, cloud)
	}
	if edge, cloud := p99["obstacleAvoidance edge 1"], p99["obstacleAvoidance cloud 1"]; edge <= 0 || edge >= cloud {
		t.Errorf("fig9: idle obstacle avoidance: edge p99 %.1fms, cloud %.1fms; want the edge faster", edge, cloud)
	}
	// Fig 13: one application saturates soonest on ThunderX, the
	// down-clocked Xeon in between.
	row := fig13(graph.SocialNetwork).Rows[0]
	if xeon, slow, thunderx := parseFloat(t, row[1]), parseFloat(t, row[2]), parseFloat(t, row[3]); !(xeon > slow && slow > thunderx && thunderx > 0) {
		t.Errorf("fig13: %s capacity xeon %.0f, xeon@1.8 %.0f, thunderx %.0f; want strictly falling", row[0], xeon, slow, thunderx)
	}
	// Fig 17: six seconds after both cases' trouble starts at t=14s, scaling
	// nginx has kept case A's tail under a millisecond and has not helped
	// case B, whose memcached sits CPU-idle behind its connection table.
	for _, row := range fig17(21*time.Second, 5*time.Second, 20*time.Second).Rows {
		if row[1] != "20s" {
			continue
		}
		tail, memcachedUtil, nginx := parseFloat(t, row[2]), parseFloat(t, row[4]), parseFloat(t, row[5])
		switch caseB := strings.HasPrefix(row[0], "B"); {
		case nginx < 2:
			t.Errorf("fig17 %s: nginx never scaled out", row[0])
		case !caseB && tail >= 1:
			t.Errorf("fig17 %s: p99 %.2fms at t=20s, want under 1ms once nginx scaled", row[0], tail)
		case caseB && (tail < 1000 || memcachedUtil > 0.5):
			t.Errorf("fig17 %s: p99 %.2fms with memcached at %.2f utilization; want seconds of tail behind an idle-looking tier", row[0], tail, memcachedUtil)
		}
	}
}

// TestAutoscaleLiveShape asserts the directional claims of the
// autoscale-live experiment: without admission control the overload phase
// collapses (Fig 17); admission keeps goodput above half the offered load
// with served requests inside QoS; the latency-aware autoscaler grows the
// compose tier and rides out the ramp cleanly.
func TestAutoscaleLiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live autoscale ramp skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		overload := map[string]aslPhaseResult{}
		for _, cfg := range aslConfigs {
			overload[cfg.name] = runAutoscale(cfg).phases[2]
		}
		noadm := overload["static, no admission"]
		adm := overload["static + admission"]
		latency := overload["autoscale latency-aware"]
		threshold := overload["autoscale threshold"]

		if noadm.ratio >= 0.25 {
			t.Errorf("no-admission overload good/offered = %.2f, want < 0.25 (backpressure collapse)", noadm.ratio)
		}
		if noadm.p99 <= aslQoS {
			t.Errorf("no-admission overload p99 = %v, want > QoS %v", noadm.p99, aslQoS)
		}
		if adm.ratio < 0.7 {
			t.Errorf("admission overload good/offered = %.2f, want >= 0.7 (sheds protect served requests)", adm.ratio)
		}
		// The latency-aware policy has scaled compose out before the overload
		// phase starts, so that phase is served whole and unqueued.
		if latency.ratio != 1 {
			t.Errorf("latency-aware overload good/offered = %.3f, want 1", latency.ratio)
		}
		if latency.p99 > aslQoS {
			t.Errorf("latency-aware overload p99 = %v, want <= QoS %v", latency.p99, aslQoS)
		}
		if latency.composeReplicas != 6 {
			t.Errorf("latency-aware compose replicas = %d, want 6 (scaled up)", latency.composeReplicas)
		}
		if threshold.composeReplicas != 4 || threshold.ratio < 0.9 {
			t.Errorf("threshold: %d compose replicas, good/offered %.2f; want 4 (utilization crossed Up) and >= 0.9",
				threshold.composeReplicas, threshold.ratio)
		}
	})
}
