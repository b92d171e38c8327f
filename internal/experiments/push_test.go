package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// pushShapeViolations runs both delivery arms at equal offered load and
// returns the claims that did not hold. An empty list is a clean pass.
func pushShapeViolations() ([]string, error) {
	var v []string
	push, err := pushRun("push")
	if err != nil {
		return nil, fmt.Errorf("push arm failed: %w", err)
	}
	poll, err := pushRun("poll")
	if err != nil {
		return nil, fmt.Errorf("poll arm failed: %w", err)
	}

	// Both arms must drain the drive — a latency contrast between partial
	// deliveries compares nothing.
	for _, res := range []pushResult{push, poll} {
		if res.delivered < pushMsgs {
			v = append(v, fmt.Sprintf("%s arm delivered %d/%d — the drive never drained", res.mode, res.delivered, pushMsgs))
		}
	}
	if len(v) > 0 {
		return v, nil
	}

	// The tentpole claim: push delivery rides the standing stream, so a
	// message never waits out a poll sweep. Poll-arm p50 sits in the sweep
	// cadence; push-arm p50 must beat it outright.
	if push.p50 >= poll.p50 {
		v = append(v, fmt.Sprintf("push p50 %v is not below poll p50 %v — the stream bought no latency", push.p50, poll.p50))
	}
	// The polling tax: push mode issues zero Consume RPCs, ever — delivery
	// and the idle window both ride the stream.
	if push.consumeRPCs != 0 {
		v = append(v, fmt.Sprintf("push arm issued %d Consume RPCs — the poll path is still live under push", push.consumeRPCs))
	}
	// The contrast needs the tax to be visible: the poll arm must have paid
	// idle polls across the trailing window (empty sweeps against both
	// shards).
	if poll.idlePolls == 0 {
		v = append(v, "poll arm paid zero idle polls — the idle window missed the tax, so the contrast shows nothing")
	}
	return v, nil
}

// TestPushShape asserts the push experiment's contrast — push delivery is
// faster than polling at equal throughput and eliminates idle-poll RPCs
// entirely. (The durability contract under push delivery is
// TestBrokerCrashShape's: every application consumer is an mq.Serve
// worker.) Standing push streams are a leak surface, so the whole run sits
// inside a goroutine-leak guard. Latency arms are wall-clock runs, so the
// shape gets three attempts and passes on the first clean one.
func TestPushShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live push/poll runs skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	retryShape(t, func(int) ([]string, error) { return pushShapeViolations() })

	// Leak guard: every arm tears its stack down; standing streams, push
	// sessions, and reopen loops must all unwind. Allow brief settling and a
	// small slack for runtime background goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
