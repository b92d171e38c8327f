package experiments

import (
	"testing"
	"time"

	"dsb/internal/vtime"
)

// TestAsyncFanoutShape asserts the directional claims of the asyncfanout
// experiment: with the timeline store modeled as a fixed-capacity server,
// the broker-backed async write path sustains strictly higher offered load
// at the p99 QoS target than the synchronous fan-out — including load past
// the store's saturation point, which lands as drained-later backlog
// instead of write-path queueing — while pipelining never does worse than
// sequential.
func TestAsyncFanoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live fan-out ladder runs skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		arms := make(map[afMode]afArmResult, 5)
		for _, mode := range []afMode{afSync, afPipelined, afAsync} {
			arm, err := afLadder(mode, afLevels)
			if err != nil {
				t.Fatalf("%s arm failed: %v", mode, err)
			}
			arms[mode] = arm
		}
		for _, mode := range []afMode{afAsyncCapped, afAsyncPart} {
			arm, err := afLadder(mode, afPartLevels)
			if err != nil {
				t.Fatalf("%s arm failed: %v", mode, err)
			}
			arms[mode] = arm
		}

		// Every arm must be healthy at the bottom rung — the sustained-load
		// comparison is meaningless if even an unloaded write path misses QoS.
		for _, mode := range []afMode{afSync, afPipelined, afAsync} {
			if arms[mode].sustained < afLevels[0] {
				t.Errorf("%s arm did not sustain even the lowest level (%.0f posts/s): %+v",
					mode, afLevels[0], arms[mode].levels)
			}
		}
		if t.Failed() {
			return
		}

		// The acceptance bar: async fan-out sustains strictly higher offered
		// load than sync at the same p99 QoS target, and specifically load past
		// the store's inline saturation point (~250 posts/s), which no inline
		// arm can reach.
		// The inline arms share the store, so both stop at the last rung under
		// its saturation point (~250 posts/s); async holds the whole ladder.
		for mode, want := range map[afMode]float64{afSync: 120, afPipelined: 120, afAsync: afLevels[len(afLevels)-1]} {
			if got := arms[mode].sustained; got != want {
				t.Errorf("%s sustained %.0f posts/s, want %.0f", mode, got, want)
			}
		}
		// At the unloaded bottom rung the median Append is the model's own
		// service chain: the author's prepend and afFollowers more, one store
		// round trip at a time, ceil of that over the slots in pipelined waves,
		// and the author's prepend alone when the rest rides the broker.
		const prepends = afFollowers + 1
		for mode, want := range map[afMode]time.Duration{
			afSync:      prepends * afStoreRTT,
			afPipelined: (prepends + afStoreSlots - 1) / afStoreSlots * afStoreRTT,
			afAsync:     afStoreRTT,
		} {
			if got := arms[mode].levels[0].p50; got != want {
				t.Errorf("%s bottom-rung p50 %v, want %v", mode, got, want)
			}
		}

		// At-least-once completeness: every level the async arms sustained must
		// have delivered every acked post to the probe follower after drain.
		for _, mode := range []afMode{afAsync, afAsyncCapped, afAsyncPart} {
			for _, lv := range arms[mode].levels {
				if lv.good && lv.delivered < lv.appended {
					t.Errorf("%s at %.0f posts/s delivered %d/%d after drain — acked posts went missing",
						mode, lv.qps, lv.delivered, lv.appended)
				}
			}
		}

		// Partitioning the broker tier is what scales the ack path past one
		// instance's publish capacity (modeled at 1/afBrokerRTT = 500/s): the
		// capped single broker must fail the 600 posts/s rung that two shards
		// sustain.
		if cappedQ, partQ := arms[afAsyncCapped].sustained, arms[afAsyncPart].sustained; cappedQ != afPartLevels[0] || partQ != afPartLevels[1] {
			t.Errorf("one capacity-capped broker sustained %.0f posts/s and two shards %.0f, want %.0f and %.0f: the publish-capacity model binds one instance and partitioning carries the top rung",
				cappedQ, partQ, afPartLevels[0], afPartLevels[1])
		}
	})
}
