package experiments

import (
	"testing"

	"dsb/internal/vtime"
)

// TestPushShape asserts the push experiment's contrast — push delivery is
// faster than polling at equal throughput and eliminates idle-poll RPCs
// entirely. (The durability contract under push delivery is
// TestBrokerCrashShape's: every application consumer is an mq.Serve
// worker.) Standing push streams are a leak surface: the bubble cannot return
// while a stream, a push session or a reopen loop is still running.
func TestPushShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live push/poll runs skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		push, err := pushRun("push")
		if err != nil {
			t.Fatalf("push arm failed: %v", err)
		}
		poll, err := pushRun("poll")
		if err != nil {
			t.Fatalf("poll arm failed: %v", err)
		}

		// Both arms must drain the drive — a latency contrast between partial
		// deliveries compares nothing.
		for _, res := range []pushResult{push, poll} {
			if res.delivered < pushMsgs {
				t.Errorf("%s arm delivered %d/%d — the drive never drained", res.mode, res.delivered, pushMsgs)
			}
		}
		if t.Failed() {
			return
		}

		// The tentpole claim: push delivery rides the standing stream, so a
		// message never waits out a poll sweep — on a clock that only the sweep
		// cadence moves it is delivered the instant it is published. Poll-arm p50
		// sits in the sweep cadence.
		if push.p99 != 0 || poll.p50 <= 0 {
			t.Errorf("push p99 %v, poll p50 %v — want no wait at all on the stream and a sweep's worth under polling", push.p99, poll.p50)
		}
		// The polling tax: push mode issues zero Consume RPCs, ever — delivery
		// and the idle window both ride the stream.
		if push.consumeRPCs != 0 {
			t.Errorf("push arm issued %d Consume RPCs — the poll path is still live under push", push.consumeRPCs)
		}
		// The contrast needs the tax to be visible: the poll arm must have paid
		// idle polls across the trailing window (empty sweeps against both
		// shards).
		if poll.idlePolls == 0 {
			t.Error("poll arm paid zero idle polls — the idle window missed the tax, so the contrast shows nothing")
		}
	})
}
