package experiments

import (
	"testing"
	"time"

	"dsb/internal/vtime"
)

// bcRecoveryBound is the shape test's ceiling on the replicated arm's
// crash-to-complete time: eviction (one lease) plus the standing backlog
// draining at the store's pace — 1.8s on virtual time.
const bcRecoveryBound = 2 * time.Second

// TestBrokerCrashShape asserts the broker-crash experiment's durability
// contrast: on the partitioned tier with per-shard replication, a broker
// killed mid-fanout loses zero acked posts — the mirror redelivers its
// queued and leased messages exactly once after the lease evicts it — and
// recovery completes within a bound; without replication the same crash
// loses the dead shard's standing backlog.
func TestBrokerCrashShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live broker-crash runs skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		repl, err := bcRun(true)
		if err != nil {
			t.Fatalf("replicated arm failed: %v", err)
		}
		unrepl, err := bcRun(false)
		if err != nil {
			t.Fatalf("unreplicated arm failed: %v", err)
		}

		// Producers retry through the crash window, so both arms must have
		// acked the whole drive — the loss contrast says nothing otherwise.
		for arm, res := range map[string]bcResult{"replicated": repl, "unreplicated": unrepl} {
			if res.acked != res.appended {
				t.Errorf("%s arm acked only %d/%d posts — the drive never established the contract under test",
					arm, res.acked, res.appended)
			}
		}
		if t.Failed() {
			return
		}

		// The tentpole claim: with per-shard mirrors, a broker crash mid-fanout
		// loses nothing that was acked — every acked post is redelivered from
		// the mirror and lands exactly once — and recovery is bounded.
		if repl.lost != 0 {
			t.Errorf("replicated arm lost %d acked posts (delivered %d/%d) — acked ⇒ mirrored is broken",
				repl.lost, repl.delivered, repl.acked)
		}
		if repl.dups != 0 {
			t.Errorf("replicated arm delivered %d duplicate timeline entries — redelivery is not idempotent", repl.dups)
		}
		if !repl.recovered {
			t.Error("replicated arm never converged: acked posts were still missing when the delivered set settled")
		} else if repl.recovery < bcLease || repl.recovery > bcRecoveryBound {
			t.Errorf("replicated arm recovered in %v — want no sooner than the lease (%v) evicts the corpse and within %v",
				repl.recovery, bcLease, bcRecoveryBound)
		}

		// The contrast: without mirrors the dead shard's standing backlog is
		// gone — acked-but-undelivered posts must show up as measurable loss.
		if unrepl.lost == 0 {
			t.Errorf("unreplicated arm lost nothing (delivered %d/%d) — the crash missed the backlog, so the contrast shows nothing",
				unrepl.delivered, unrepl.acked)
		}
		if unrepl.dups != 0 {
			t.Errorf("unreplicated arm delivered %d duplicates — unique prepends should hold in both arms", unrepl.dups)
		}
	})
}
