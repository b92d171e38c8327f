package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load driver. It is the benchmark's own rather than internal/loadgen's
// runners because those draw from a mutex-guarded shared source and stamp
// latencies at send time inside the measured loop; here every op is decided
// before the clock starts, each client writes into its own pre-sized
// slices, and the measured loop allocates nothing.

// section is what one measured section of a rep produced. Times are
// nanoseconds since the section started.
type section struct {
	// start holds, per client and op, when the op was sent (closed loop) or
	// was due (open loop); lat its latency from that moment, failedLat for
	// an op that failed.
	start, lat [][]int64
	// lag holds, for an open loop, how late each arrival was dispatched
	// against its due time.
	lag    []int64
	failed int
	// marks are readings of the process's CPU time that client 0 (the
	// dispatcher, in an open loop) took at its segment boundaries.
	marks []mark
}

type mark struct {
	at  int64
	cpu time.Duration
}

// runClosed drives a closed loop: client c runs ops 0..counts[c]-1 back to
// back, sending the next only when the previous one completed, and the call
// returns when every client is done. Latency is timed from send.
func runClosed(counts []int, segOps int, do func(client, i int) error) section {
	sec := section{start: make([][]int64, len(counts)), lat: make([][]int64, len(counts))}
	for c, n := range counts {
		sec.start[c], sec.lat[c] = make([]int64, n), make([]int64, n)
	}
	sec.marks = make([]mark, 0, counts[0]/segOps+2)
	var failed atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range counts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start, lat := sec.start[c], sec.lat[c]
			for i := range lat {
				t0 := time.Since(begin)
				if c == 0 && i%segOps == 0 {
					sec.marks = append(sec.marks, mark{int64(t0), cpuTime()})
				}
				start[i] = int64(t0)
				if err := do(c, i); err != nil {
					lat[i] = failedLat
					failed.Add(1)
					continue
				}
				lat[i] = int64(time.Since(begin) - t0)
			}
			if c == 0 {
				sec.marks = append(sec.marks, mark{int64(time.Since(begin)), cpuTime()})
			}
		}(c)
	}
	wg.Wait()
	sec.failed = int(failed.Load())
	return sec
}

// runOpen drives an open loop: arrival i is due at start+due[i] whatever the
// system does. workers goroutines execute arrivals; an arrival that finds
// them all busy waits in a queue that holds the whole schedule, so the
// generator never blocks and nothing is refused. Latency is timed from the
// due time, not from dispatch, so a stall shows up in the latency of every op
// that had to wait behind it while the schedule itself never shifts; lag
// records how late the generator ran.
func runOpen(due []time.Duration, segOps, workers int, do func(i int) error) section {
	sec := section{start: [][]int64{make([]int64, len(due))}, lat: [][]int64{make([]int64, len(due))}, lag: make([]int64, len(due))}
	sec.marks = make([]mark, 0, len(due)/segOps+2)
	lat := sec.lat[0]
	queue := make(chan int, len(due))
	var failed atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if err := do(i); err != nil {
					lat[i] = failedLat
					failed.Add(1)
				} else {
					lat[i] = int64(time.Since(begin) - due[i])
				}
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(begin); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(begin)
		if i%segOps == 0 {
			sec.marks = append(sec.marks, mark{int64(now), cpuTime()})
		}
		sec.start[0][i], sec.lag[i] = int64(d), int64(now-d)
		queue <- i
	}
	close(queue)
	wg.Wait()
	sec.marks = append(sec.marks, mark{int64(time.Since(begin)), cpuTime()})
	sec.failed = int(failed.Load())
	return sec
}

// segment is what one segment — a fixed run of consecutive ops of one client
// — measured in one rep. Reps replay the same ops on the same state, so
// segment k of one rep is the same work as segment k of any other.
type segment struct {
	dur time.Duration // first send (or due time) to last completion
	// lat are the latencies of the segment's ops and sum their total, the
	// measure by which reps compete for the segment (a failed op makes the
	// sum infinite).
	lat []int64
	sum float64
}

// segments cuts every client's ops into runs of segOps (the last run takes
// the remainder). The latencies are views into the section, not copies.
func (sec *section) segments(segOps int) [][]segment {
	out := make([][]segment, len(sec.lat))
	for c, lat := range sec.lat {
		n := max(1, len(lat)/segOps)
		for k := 0; k < n; k++ {
			from, to := k*segOps, (k+1)*segOps
			if k == n-1 {
				to = len(lat)
			}
			seg := segment{lat: lat[from:to]}
			var end int64
			for i := from; i < to; i++ {
				if lat[i] == failedLat {
					seg.sum = math.Inf(1)
					continue
				}
				seg.sum += float64(lat[i])
				end = max(end, sec.start[c][i]+lat[i])
			}
			seg.dur = time.Duration(end - sec.start[c][from])
			out[c] = append(out[c], seg)
		}
	}
	return out
}

// cpuPerOp returns, for every window between two CPU marks, the CPU time the
// process used in it per op that completed in it (any client's), in
// microseconds.
func (sec *section) cpuPerOp() []float64 {
	done := make([]int, len(sec.marks)-1)
	for c, lat := range sec.lat {
		for i, l := range lat {
			if l == failedLat {
				continue
			}
			at := sec.start[c][i] + l
			// The window whose opening mark is the last one at or before at.
			w := sort.Search(len(sec.marks), func(j int) bool { return sec.marks[j].at > at }) - 1
			if w >= 0 && w < len(done) {
				done[w]++
			}
		}
	}
	out := make([]float64, len(done))
	for w := range out {
		if done[w] > 0 {
			out[w] = us(sec.marks[w+1].cpu-sec.marks[w].cpu) / float64(done[w])
		}
	}
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64) // "VmHWM:   47188 kB"
			return kb / 1024
		}
	}
	return 0
}
