package sim

import "time"

// Station is a multi-worker FIFO service center. A caller acquires a
// worker, holds it for however long it needs (compute, downstream calls),
// and releases it; queued acquisitions are granted in arrival order.
type Station struct {
	sim     *Sim
	Name    string
	workers int

	busy  int
	queue []func(release func())

	// Utilization accounting: busy worker-time integral.
	busyIntegral time.Duration
	lastChange   time.Duration
	// markIntegral/markAt support windowed utilization sampling.
	markIntegral time.Duration
	markAt       time.Duration

	// QueuePeak tracks the largest backlog since the last sample.
	QueuePeak int
}

// NewStation creates a station with the given parallelism.
func NewStation(s *Sim, name string, workers int) *Station {
	if workers < 1 {
		workers = 1
	}
	return &Station{sim: s, Name: name, workers: workers}
}

// Workers returns the station's parallelism.
func (st *Station) Workers() int { return st.workers }

func (st *Station) account() {
	now := st.sim.Now()
	st.busyIntegral += time.Duration(st.busy) * (now - st.lastChange)
	st.lastChange = now
}

// Acquire requests a worker; fn runs (via the event loop) once granted and
// must call release exactly once when done.
func (st *Station) Acquire(fn func(release func())) {
	if st.busy < st.workers {
		st.grant(fn)
		return
	}
	st.queue = append(st.queue, fn)
	if len(st.queue) > st.QueuePeak {
		st.QueuePeak = len(st.queue)
	}
}

func (st *Station) grant(fn func(release func())) {
	st.account()
	st.busy++
	released := false
	release := func() {
		if released {
			panic("sim: double release on station " + st.Name)
		}
		released = true
		st.account()
		st.busy--
		if len(st.queue) > 0 {
			next := st.queue[0]
			st.queue = st.queue[1:]
			// Grant through the event loop to bound stack depth under
			// deep backlogs.
			st.sim.After(0, func() { st.grant(next) })
		}
	}
	st.sim.After(0, func() { fn(release) })
}

// Use is the common acquire-hold-for-duration-release pattern: occupy a
// worker for d, then run done.
func (st *Station) Use(d time.Duration, done func()) {
	st.Acquire(func(release func()) {
		st.sim.After(d, func() {
			release()
			done()
		})
	})
}

// Utilization returns the busy fraction since the last SampleReset (or
// since creation), in [0, 1].
func (st *Station) Utilization() float64 {
	st.account()
	window := st.sim.Now() - st.markAt
	if window <= 0 {
		return 0
	}
	return float64(st.busyIntegral-st.markIntegral) / float64(window) / float64(st.workers)
}

// SampleReset starts a new utilization window and clears QueuePeak.
func (st *Station) SampleReset() {
	st.account()
	st.markIntegral = st.busyIntegral
	st.markAt = st.sim.Now()
	st.QueuePeak = len(st.queue)
}

// SetWorkers changes parallelism (scaling an instance up/down). Shrinking
// below the busy count lets current holders finish; no new grants happen
// until busy drops below the new limit.
func (st *Station) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	st.account()
	st.workers = n
	for st.busy < st.workers && len(st.queue) > 0 {
		next := st.queue[0]
		st.queue = st.queue[1:]
		st.grant(next)
	}
}
