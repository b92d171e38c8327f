package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
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

func TestTable1CountsServices(t *testing.T) {
	rep := Table1()
	if len(rep.Rows) != 6 { // 5 apps + total
		t.Fatalf("rows = %d (notes: %v)", len(rep.Rows), rep.Notes)
	}
	total := rep.Rows[5]
	if n := parseFloat(t, total[2]); n < 80 {
		t.Fatalf("total services = %.0f, want 80+", n)
	}
}

func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment smoke skipped in -short mode")
	}
	for _, id := range []string{"fig9", "fig13", "fig17"} {
		exp, _ := Lookup(id)
		rep := exp.Run()
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// autoscaleLiveViolations runs every autoscale-live configuration once and
// returns the directional claims its overload phase did not hold.
func autoscaleLiveViolations() []string {
	overload := map[string]aslPhaseResult{}
	for _, cfg := range aslConfigs {
		overload[cfg.name] = runAutoscale(cfg).phases[2]
	}
	noadm := overload["static, no admission"]
	adm := overload["static + admission"]
	latency := overload["autoscale latency-aware"]
	threshold := overload["autoscale threshold"]

	var v []string
	if noadm.ratio >= 0.45 {
		v = append(v, fmt.Sprintf("no-admission overload good/offered = %.2f, want < 0.45 (backpressure collapse)", noadm.ratio))
	}
	if noadm.p99 <= aslQoS {
		v = append(v, fmt.Sprintf("no-admission overload p99 = %v, want > QoS %v", noadm.p99, aslQoS))
	}
	if adm.ratio < 0.5 {
		v = append(v, fmt.Sprintf("admission overload good/offered = %.2f, want >= 0.5 (sheds protect served requests)", adm.ratio))
	}
	if latency.ratio < 0.75 {
		v = append(v, fmt.Sprintf("latency-aware overload good/offered = %.2f, want >= 0.75", latency.ratio))
	}
	if latency.ratio <= noadm.ratio {
		v = append(v, fmt.Sprintf("latency-aware ratio %.2f not above no-admission %.2f", latency.ratio, noadm.ratio))
	}
	if latency.p99 > aslQoS {
		v = append(v, fmt.Sprintf("latency-aware overload p99 = %v, want <= QoS %v", latency.p99, aslQoS))
	}
	if latency.composeReplicas <= 2 {
		v = append(v, fmt.Sprintf("latency-aware compose replicas = %d, want > 2 (scaled up)", latency.composeReplicas))
	}
	if threshold.composeReplicas <= 2 {
		v = append(v, fmt.Sprintf("threshold compose replicas = %d, want > 2 (utilization crossed Up)", threshold.composeReplicas))
	}
	return v
}

// TestAutoscaleLiveShape asserts the directional claims of the
// autoscale-live experiment: without admission control the overload phase
// collapses (Fig 17); admission keeps goodput above half the offered load
// with served requests inside QoS; the latency-aware autoscaler grows the
// compose tier and rides out the ramp near-cleanly. The ramp is a
// wall-clock queueing measurement, so the shape gets three attempts and
// passes on the first clean one; a real regression fails all three.
func TestAutoscaleLiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live autoscale ramp skipped in -short mode")
	}
	retryShape(t, func(int) ([]string, error) { return autoscaleLiveViolations(), nil })
}
