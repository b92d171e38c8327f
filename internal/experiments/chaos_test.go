package experiments

import (
	"fmt"
	"strings"
	"testing"

	"dsb/internal/fault"
)

// TestChaosScheduleDeterministic builds the chaos fault schedule twice from
// the same seed without booting anything: the timelines must be identical,
// and the seeded crash instant must land inside its declared window.
func TestChaosScheduleDeterministic(t *testing.T) {
	build := func(seed int64) string {
		return chaosScenario(fault.NewInjector(seed), false, nil, nil).String()
	}
	a, b := build(chaosSeed), build(chaosSeed)
	if a != b {
		t.Fatalf("same-seed schedules differ:\n%s\nvs\n%s", a, b)
	}
	if build(chaosSeed+1) == a {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, want := range []string{
		"crash(social.readPost/1)",
		"deregister(social.readPost/1)",
		"partition(social.readTimeline→social.readPost)",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("schedule missing %q:\n%s", want, a)
		}
	}
}

// chaosShapeViolations checks one pair of chaos-arm results and returns
// the directional claims that did not hold; an empty list is a clean pass.
// Schedule determinism and crash-window placement are not wall-clock
// sensitive, so those stay hard failures in the caller.
func chaosShapeViolations(prot, unprot chaosResult) []string {
	var v []string
	// Protected: the trough stays shallow and recovery fits in two TTLs.
	if tr := prot.trough(); tr < 0.5 {
		v = append(v, fmt.Sprintf("protected trough = %.2f of steady, want >= 0.5", tr))
	}
	if rec := prot.recovery(); rec > 2*chaosLease {
		v = append(v, fmt.Sprintf("protected recovery = %v, want <= %v", rec, 2*chaosLease))
	}
	if issued, good, degraded := prot.window(chaosPartStart, chaosPartEnd); issued > 0 {
		if ratio := float64(good) / float64(issued); ratio < 0.8 {
			v = append(v, fmt.Sprintf("protected partition good/offered = %.2f, want >= 0.8 (degraded serves)", ratio))
		}
		if degraded == 0 {
			v = append(v, "protected partition window served no degraded responses")
		}
	}

	// Unprotected: collapse until the operator action, dead partition window.
	if issued, good, _ := unprot.window(chaosCrashHi, chaosManualAt); issued > 0 {
		if ratio := float64(good) / float64(issued); ratio > 0.7 {
			v = append(v, fmt.Sprintf("unprotected crash good/offered = %.2f, want <= 0.7 (corpse eats picks)", ratio))
		}
	}
	if rec, outage := unprot.recovery(), chaosManualAt-unprot.crashAt; rec < outage {
		v = append(v, fmt.Sprintf("unprotected recovered at %v, before the operator deregistration (%v after crash)", rec, outage))
	}
	if issued, good, _ := unprot.window(chaosManualAt, chaosPartStart); issued > 0 {
		if ratio := float64(good) / float64(issued); ratio < 0.9 {
			v = append(v, fmt.Sprintf("unprotected healed good/offered = %.2f, want >= 0.9 after deregistration", ratio))
		}
	}
	if issued, good, _ := unprot.window(chaosPartStart, chaosPartEnd); issued > 0 {
		if ratio := float64(good) / float64(issued); ratio > 0.2 {
			v = append(v, fmt.Sprintf("unprotected partition good/offered = %.2f, want <= 0.2", ratio))
		}
	}
	if tr := prot.trough(); tr <= unprot.trough() && tr < 1 {
		v = append(v, fmt.Sprintf("protected trough %.2f not above unprotected %.2f", tr, unprot.trough()))
	}
	return v
}

// TestChaosRecoveryShape asserts the directional claims of the chaos
// experiment (Fig 20's recovery contrast). Two consecutive protected runs
// must play the identical fault schedule (fixed seed); with leases +
// degradation the post-crash goodput trough stays at or above half of
// steady state and recovers within two lease TTLs, while the unprotected
// arm collapses until the scheduled operator deregistration and loses the
// partition window outright. The goodput claims are wall-clock
// measurements, so — like the other live shape tests in this package —
// they get three attempts and pass on the first clean one; the fixed seed
// means a real regression fails all three identically.
func TestChaosRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs skipped in -short mode")
	}
	retryShape(t, func(int) ([]string, error) {
		prot := runChaos(true, chaosSeed)
		prot2 := runChaos(true, chaosSeed)
		if prot.schedule == "" || prot.schedule != prot2.schedule {
			t.Fatalf("same-seed runs played different schedules:\n%s\nvs\n%s", prot.schedule, prot2.schedule)
		}
		if prot.crashAt < chaosCrashLo || prot.crashAt >= chaosCrashHi {
			t.Fatalf("crash at %v, want inside [%v, %v)", prot.crashAt, chaosCrashLo, chaosCrashHi)
		}
		unprot := runChaos(false, chaosSeed)
		if unprot.crashAt != prot.crashAt {
			t.Fatalf("arms crashed at different instants: %v vs %v", unprot.crashAt, prot.crashAt)
		}
		return chaosShapeViolations(prot, unprot), nil
	})
}
