package experiments

import (
	"fmt"
	"testing"
)

// afShapeViolations runs the three asyncfanout arms once and returns the
// directional claims that did not hold. An empty list is a clean pass.
func afShapeViolations() ([]string, error) {
	var v []string
	arms := make(map[afMode]afArmResult, 5)
	for _, mode := range []afMode{afSync, afPipelined, afAsync} {
		arm, err := afLadder(mode, afLevels)
		if err != nil {
			return nil, fmt.Errorf("%s arm failed: %w", mode, err)
		}
		arms[mode] = arm
	}
	for _, mode := range []afMode{afAsyncCapped, afAsyncPart} {
		arm, err := afLadder(mode, afPartLevels)
		if err != nil {
			return nil, fmt.Errorf("%s arm failed: %w", mode, err)
		}
		arms[mode] = arm
	}

	// Every arm must be healthy at the bottom rung — the sustained-load
	// comparison is meaningless if even an unloaded write path misses QoS.
	for _, mode := range []afMode{afSync, afPipelined, afAsync} {
		if arms[mode].sustained < afLevels[0] {
			v = append(v, fmt.Sprintf("%s arm did not sustain even the lowest level (%.0f posts/s): %+v",
				mode, afLevels[0], arms[mode].levels))
		}
	}
	if len(v) > 0 {
		return v, nil
	}

	// The acceptance bar: async fan-out sustains strictly higher offered
	// load than sync at the same p99 QoS target, and specifically load past
	// the store's inline saturation point (~250 posts/s), which no inline
	// arm can reach.
	syncQ, pipeQ, asyncQ := arms[afSync].sustained, arms[afPipelined].sustained, arms[afAsync].sustained
	if asyncQ <= syncQ {
		v = append(v, fmt.Sprintf("async sustained %.0f posts/s, sync %.0f — async must be strictly higher", asyncQ, syncQ))
	}
	if asyncQ < 300 {
		v = append(v, fmt.Sprintf("async sustained only %.0f posts/s — it should ride past store saturation (>= 300)", asyncQ))
	}
	if syncQ >= 300 {
		v = append(v, fmt.Sprintf("sync sustained %.0f posts/s beyond store saturation — the capacity model is not binding", syncQ))
	}
	// Pipelining's win is inline latency, not capacity (both arms share the
	// store), so pin it where it is deterministic: at the unloaded bottom
	// rung, ceil(F/slots) pipelined waves must beat F sequential
	// round-trips on the median.
	if pipeP50, syncP50 := arms[afPipelined].levels[0].p50, arms[afSync].levels[0].p50; pipeP50 >= syncP50 {
		v = append(v, fmt.Sprintf("pipelined bottom-rung p50 %v >= sync %v — in-flight prepends should beat sequential round-trips", pipeP50, syncP50))
	}
	_ = pipeQ

	// At-least-once completeness: every level the async arms sustained must
	// have delivered every acked post to the probe follower after drain.
	for _, mode := range []afMode{afAsync, afAsyncCapped, afAsyncPart} {
		for _, lv := range arms[mode].levels {
			if lv.good && lv.delivered < lv.appended {
				v = append(v, fmt.Sprintf("%s at %.0f posts/s delivered %d/%d after drain — acked posts went missing",
					mode, lv.qps, lv.delivered, lv.appended))
			}
		}
	}

	// Partitioning the broker tier is what scales the ack path past one
	// instance's publish capacity (modeled at 1/afBrokerRTT = 500/s): the
	// capped single broker must fail the 600 posts/s rung that two shards
	// sustain.
	cappedQ, partQ := arms[afAsyncCapped].sustained, arms[afAsyncPart].sustained
	if cappedQ >= afPartLevels[len(afPartLevels)-1] {
		v = append(v, fmt.Sprintf("single capacity-capped broker sustained %.0f posts/s — the publish-capacity model is not binding", cappedQ))
	}
	if partQ < afPartLevels[len(afPartLevels)-1] {
		v = append(v, fmt.Sprintf("two-shard broker tier sustained only %.0f posts/s — partitioning should carry the top rung (%.0f)",
			partQ, afPartLevels[len(afPartLevels)-1]))
	}
	if partQ <= cappedQ {
		v = append(v, fmt.Sprintf("partitioned broker sustained %.0f posts/s, single %.0f — partitioning must be strictly higher", partQ, cappedQ))
	}
	return v, nil
}

// TestAsyncFanoutShape asserts the directional claims of the asyncfanout
// experiment: with the timeline store modeled as a fixed-capacity server,
// the broker-backed async write path sustains strictly higher offered load
// at the p99 QoS target than the synchronous fan-out — including load past
// the store's saturation point, which lands as drained-later backlog
// instead of write-path queueing — while pipelining never does worse than
// sequential. All three arms are wall-clock queueing measurements, so the
// shape gets three attempts and passes on the first clean one; a real
// regression fails all three deterministically.
func TestAsyncFanoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live fan-out ladder runs skipped in -short mode")
	}
	retryShape(t, func(int) ([]string, error) { return afShapeViolations() })
}
