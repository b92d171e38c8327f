package experiments

import (
	"fmt"
	"testing"
	"time"
)

// bcRecoveryBound is the shape test's ceiling on the replicated arm's
// crash-to-complete time: eviction (one lease) plus the standing backlog
// draining at the store's pace, with generous slack for scheduler noise.
const bcRecoveryBound = 8 * time.Second

// bcShapeViolations runs both broker-crash arms once and returns the
// durability claims that did not hold. An empty list is a clean pass.
func bcShapeViolations(seed int64) ([]string, error) {
	var v []string
	repl, err := bcRun(true, seed)
	if err != nil {
		return nil, fmt.Errorf("replicated arm failed: %w", err)
	}
	unrepl, err := bcRun(false, seed)
	if err != nil {
		return nil, fmt.Errorf("unreplicated arm failed: %w", err)
	}

	// Both arms must have acked a meaningful share of the drive — the loss
	// contrast says nothing if the producers never got through.
	for _, res := range []bcResult{repl, unrepl} {
		arm := "unreplicated"
		if res.replicated {
			arm = "replicated"
		}
		if res.acked < res.appended/2 {
			v = append(v, fmt.Sprintf("%s arm acked only %d/%d posts — the drive never established the contract under test",
				arm, res.acked, res.appended))
		}
	}
	if len(v) > 0 {
		return v, nil
	}

	// The tentpole claim: with per-shard mirrors, a broker crash mid-fanout
	// loses nothing that was acked — every acked post is redelivered from
	// the mirror and lands exactly once — and recovery is bounded.
	if repl.lost != 0 {
		v = append(v, fmt.Sprintf("replicated arm lost %d acked posts (delivered %d/%d) — acked ⇒ mirrored is broken",
			repl.lost, repl.delivered, repl.acked))
	}
	if repl.dups != 0 {
		v = append(v, fmt.Sprintf("replicated arm delivered %d duplicate timeline entries — redelivery is not idempotent", repl.dups))
	}
	if !repl.recovered {
		v = append(v, "replicated arm never converged: acked posts were still missing when the delivered set settled")
	} else if repl.recovery > bcRecoveryBound {
		v = append(v, fmt.Sprintf("replicated arm recovered in %v — bound is %v", repl.recovery, bcRecoveryBound))
	}

	// The contrast: without mirrors the dead shard's standing backlog is
	// gone — acked-but-undelivered posts must show up as measurable loss.
	if unrepl.lost == 0 {
		v = append(v, fmt.Sprintf("unreplicated arm lost nothing (delivered %d/%d) — the crash missed the backlog, so the contrast shows nothing",
			unrepl.delivered, unrepl.acked))
	}
	if unrepl.dups != 0 {
		v = append(v, fmt.Sprintf("unreplicated arm delivered %d duplicates — unique prepends should hold in both arms", unrepl.dups))
	}
	return v, nil
}

// TestBrokerCrashShape asserts the broker-crash experiment's durability
// contrast: on the partitioned tier with per-shard replication, a broker
// killed mid-fanout loses zero acked posts — the mirror redelivers its
// queued and leased messages exactly once after the lease evicts it — and
// recovery completes within a bound; without replication the same crash
// loses the dead shard's standing backlog. Both arms are wall-clock chaos
// runs, so the shape gets three attempts (distinct seeds) and passes on the
// first clean one; a real regression fails all three deterministically.
func TestBrokerCrashShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live broker-crash runs skipped in -short mode")
	}
	retryShape(t, func(i int) ([]string, error) { return bcShapeViolations(int64(41 * i)) })
}
