package mq

import (
	"testing"
	"time"
)

// TestReceiveWaitReadyAllocGuard pins the push stream's per-message wait: a
// session's ReceiveWait on a queue with a message ready leases it without
// arming the wait's timer, so receive plus ack allocates nothing. Arming it
// costs a timer, its callback and the flag the callback sets, three objects
// for every delivered message.
func TestReceiveWaitReadyAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	const runs = 1000
	q := NewBroker().Queue("orders")
	for i := 0; i < runs+1; i++ {
		if _, err := q.Publish([]byte("order")); err != nil {
			t.Fatal(err)
		}
	}
	sess := q.Session()
	defer sess.Close()
	allocs := testing.AllocsPerRun(runs, func() {
		msg, ok := sess.ReceiveWait(time.Minute, pushWaitSlice)
		if !ok || !q.Ack(msg.ID) {
			t.Fatal("a ready message was not leased and acked")
		}
	})
	t.Logf("ReceiveWait + Ack of a ready message: %.0f objects", allocs)
	if allocs > 0 {
		t.Errorf("ReceiveWait + Ack of a ready message allocates %.0f objects, want 0", allocs)
	}
}
