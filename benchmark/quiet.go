package main

import (
	"slices"
	"time"
)

// quietRun builds, rep by rep, the quiet-machine value of every timing
// metric of a run. Interference from the host comes in bursts of a fraction
// of a second to a few seconds and only ever slows work down, and every rep
// replays the same ops on the same state, so each piece of the work — a
// segment of a client's ops, a CPU window, a set-up phase — is taken from
// the rep that ran that piece fastest, and the pieces are put back together
// into the rep a quiet machine would have run:
//
//   - throughput_rps: the rep's ops over the slowest client's summed segment
//     durations plus the best drain;
//   - latency_p50_us, latency_p99_us: percentiles over the latencies of all
//     chosen segments — every op of the list exactly once, each segment whole
//     from one rep, so a tail the tree causes itself stays in;
//   - cpu_us_per_op: the mean over CPU windows of the window's best;
//   - setup_s: the sum over set-up phases of the phase's best.
type quietRun struct {
	attempted int
	segs      [][]segment
	drain     time.Duration
	cpuPerOp  []float64
	laps      []time.Duration
}

// add folds one rep in, keeping a copy of every segment it ran best.
func (q *quietRun) add(r *repResult) {
	if q.segs == nil {
		q.attempted, q.drain = r.attempted, r.drain
		q.cpuPerOp, q.laps = slices.Clone(r.cpuPerOp), slices.Clone(r.laps)
		q.segs = make([][]segment, len(r.segs))
		for c := range r.segs {
			q.segs[c] = make([]segment, len(r.segs[c]))
		}
	}
	for c := range r.segs {
		for k, seg := range r.segs[c] {
			if best := &q.segs[c][k]; best.lat == nil || seg.sum < best.sum {
				*best = seg
				// The rep's own arrays are dropped after this.
				best.lat = slices.Clone(seg.lat)
			}
		}
	}
	q.drain = min(q.drain, r.drain)
	for w := range q.cpuPerOp {
		q.cpuPerOp[w] = min(q.cpuPerOp[w], r.cpuPerOp[w])
	}
	for i := range q.laps {
		q.laps[i] = min(q.laps[i], r.laps[i])
	}
}

func (q *quietRun) metrics() map[string]float64 {
	var slowest, setup time.Duration
	var lat []int64
	for c := range q.segs {
		var sum time.Duration
		for _, seg := range q.segs[c] {
			sum += seg.dur
			lat = append(lat, seg.lat...)
		}
		slowest = max(slowest, sum)
	}
	for _, l := range q.laps {
		setup += l
	}
	var cpu float64
	for _, c := range q.cpuPerOp {
		cpu += c
	}
	slices.Sort(lat)
	return map[string]float64{
		"throughput_rps": float64(q.attempted) / (slowest + q.drain).Seconds(),
		"latency_p50_us": latUs(lat, 50),
		"latency_p99_us": latUs(lat, 99),
		"cpu_us_per_op":  cpu / float64(len(q.cpuPerOp)),
		"setup_s":        setup.Seconds(),
	}
}
