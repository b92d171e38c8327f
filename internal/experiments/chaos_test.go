package experiments

import (
	"strings"
	"testing"

	"dsb/internal/fault"
	"dsb/internal/vtime"
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

// TestChaosRecoveryShape asserts the directional claims of the chaos
// experiment (Fig 20's recovery contrast). Two consecutive protected runs
// must play the identical fault schedule (fixed seed); with leases +
// degradation the crash costs no 100ms bucket any goodput and the partition
// window is served degraded, while the unprotected arm collapses until the
// scheduled operator deregistration and loses the partition window outright.
func TestChaosRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
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

		// Protected: degraded reads bridge the crash, so no 100ms bucket dips and
		// the run is "recovered" by the end of the bucket the crash landed in; the
		// partition window is served whole, every response degraded.
		if tr := prot.trough(); tr != 1 {
			t.Errorf("protected trough = %.2f of steady, want 1.00", tr)
		}
		if rec := prot.recovery(); rec > chaosBucket {
			t.Errorf("protected recovery = %v, want inside the crash's own %v bucket", rec, chaosBucket)
		}
		if issued, good, degraded := prot.window(chaosPartStart, chaosPartEnd); issued == 0 || good != issued || degraded != issued {
			t.Errorf("protected partition window: %d good, %d degraded of %d offered, want all of both (degraded serves)", good, degraded, issued)
		}

		// Unprotected: the corpse eats its share of picks until the operator
		// action, goodput is whole again in the very next bucket, and the
		// partition window is dead.
		if issued, good, _ := unprot.window(chaosCrashHi, chaosManualAt); issued > 0 {
			if ratio := float64(good) / float64(issued); ratio > 0.7 {
				t.Errorf("unprotected crash good/offered = %.2f, want <= 0.7 (corpse eats picks)", ratio)
			}
		}
		if rec, want := unprot.recovery(), chaosManualAt+chaosBucket-unprot.crashAt; rec != want {
			t.Errorf("unprotected recovered %v after the crash, want %v: the bucket after the operator deregistration", rec, want)
		}
		if issued, good, _ := unprot.window(chaosManualAt, chaosPartStart); issued == 0 || good != issued {
			t.Errorf("unprotected healed: %d good of %d offered, want all after deregistration", good, issued)
		}
		if issued, good, _ := unprot.window(chaosPartStart, chaosPartEnd); issued == 0 || good != 0 {
			t.Errorf("unprotected partition: %d good of %d offered, want none", good, issued)
		}
		if tr := unprot.trough(); tr >= 0.7 {
			t.Errorf("unprotected trough %.2f, want the corpse's share of picks gone (< 0.7)", tr)
		}
	})
}
