package experiments

import (
	"testing"

	"dsb/internal/vtime"
)

// TestTailAtScaleShape asserts the directional claims of the tail-at-scale
// experiment on the live sharded tier. Skew arm: at equal offered load,
// 8-way sharding must cut the single-shard p99 to a fifth (it reads a
// seventh) and leave the median read unqueued. Slow
// arm: with one replica of the hot shard made slow, protected routing
// (breaker ejection + read fallback) must restore at least 0.8 of the
// fault-free goodput while the unprotected arm must not — the contrast is
// the point, so both directions are pinned.
func TestTailAtScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live tail-at-scale runs skipped in -short mode")
	}
	t.Parallel() // virtual time: a busy core cannot move its numbers
	vtime.Run(t, func() {
		skew1 := tailSkewRun(1)
		skew8 := tailSkewRun(8)
		switch {
		case skew1.p99 <= 0 || skew8.p99 <= 0:
			t.Errorf("skew arms produced no latency samples: 1-shard p99=%v, 8-shard p99=%v", skew1.p99, skew8.p99)
		case 5*skew8.p99 > skew1.p99:
			t.Errorf("8-shard p99 %v > 0.2x single-shard p99 %v: sharding did not collapse the queueing tail",
				skew8.p99, skew1.p99)
		}
		// Eight shards leave even the hottest far below saturation: the median
		// read is one service time and the tail at most one more behind it.
		if skew8.p50 != tailServiceTime || skew8.p99 > 2*tailServiceTime {
			t.Errorf("8-shard p50 %v p99 %v, want %v and at most %v", skew8.p50, skew8.p99, tailServiceTime, 2*tailServiceTime)
		}
		// Open loop means the arms saw the same arrivals, and both run below
		// aggregate capacity, so they complete the same requests.
		if skew1.throughput != skew8.throughput {
			t.Errorf("skew arms completed unequal load: %.0f vs %.0f req/s", skew1.throughput, skew8.throughput)
		}

		faultFree := tailSlowRun(false, false)
		// Six closed-loop workers over 1ms servers: just under 6000 req/s, all
		// of it inside QoS.
		if faultFree.goodput < 5800 || faultFree.goodput != faultFree.throughput {
			t.Errorf("fault-free arm: goodput %.0f of %.0f req/s, want all of it and at least 5800", faultFree.goodput, faultFree.throughput)
			return
		}
		unprotected := tailSlowRun(true, false)
		protected := tailSlowRun(true, true)
		if protected.goodput < 0.8*faultFree.goodput {
			t.Errorf("protected goodput %.0f < 0.8x fault-free %.0f: ejection + fallback did not restore the tier",
				protected.goodput, faultFree.goodput)
		}
		if unprotected.goodput >= 0.4*faultFree.goodput {
			t.Errorf("unprotected goodput %.0f >= 0.4x fault-free %.0f: the slow replica should have dragged it down",
				unprotected.goodput, faultFree.goodput)
		}
		// The protection mechanism must actually be the breaker, not luck:
		// exactly the slow replica trips (MaxEjected caps it at one), and the
		// unprotected arm has no breaker to trip.
		if protected.breakerTrips != 1 {
			t.Errorf("protected arm tripped %d breakers, want exactly 1 (the slow replica)", protected.breakerTrips)
		}
		if unprotected.breakerTrips != 0 {
			t.Errorf("unprotected arm tripped %d breakers, want 0 (no resilience configured)", unprotected.breakerTrips)
		}
	})
}
