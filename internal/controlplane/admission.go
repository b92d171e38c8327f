package controlplane

import (
	"context"
	"math"
	"sync"
	"time"

	"dsb/internal/metrics"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// AdmissionConfig tunes one replica's admission controller. The zero value
// gets sane defaults from NewAdmission.
type AdmissionConfig struct {
	// MaxConcurrent bounds requests executing simultaneously — the
	// replica's worker pool. Zero means unlimited (admission then only
	// sheds on queue bound, CoDel, and deadline budget).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a worker; arrivals beyond it
	// are shed immediately (default 256). An unbounded queue is how the
	// paper's Fig 17 backpressure collapse happens: every queued request
	// eventually times out client-side but still burns a worker when its
	// turn comes.
	MaxQueue int
}

const (
	// codelTarget is the acceptable standing queueing delay; codelInterval
	// is how long delay must stay above target before shedding starts.
	codelTarget   = 5 * time.Millisecond
	codelInterval = 100 * time.Millisecond
	// minBudget floors the expected service time a request's remaining
	// deadline must cover: below it the work would be wasted, the client
	// giving up before the reply.
	minBudget = time.Millisecond
	// reportWindow sizes the sliding windows behind the load report.
	reportWindow = time.Second
)

// Admission is one replica's server-side overload guard. Protocol adapters
// (Interceptor for rpc, RESTInterceptor for rest) wrap handlers in
// Admit/release; Report snapshots the windowed load view the controller
// aggregates.
type Admission struct {
	cfg AdmissionConfig
	sem chan struct{} // nil when MaxConcurrent == 0

	queued   metrics.Gauge
	inFlight metrics.Gauge

	admitted  metrics.Counter
	shedQueue metrics.Counter // queue bound exceeded
	shedCoDel metrics.Counter // standing queue delay above target
	shedOver  metrics.Counter // deadline budget below expected service time

	doneRate *metrics.Meter // completions/s
	shedRate *metrics.Meter // sheds/s
	busyNs   *metrics.Meter // handler-occupancy ns/s → utilization
	sojourn  *metrics.Windowed
	wait     *metrics.Windowed

	mu         sync.Mutex
	ewmaNs     float64   // EWMA of handler service time
	firstAbove time.Time // CoDel: when delay first exceeded target
	dropNext   time.Time // CoDel: next scheduled drop while dropping
	dropCount  int       // CoDel: drops in the current dropping episode
	dropping   bool
}

// NewAdmission builds an admission controller for one replica.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	a := &Admission{
		cfg:      cfg,
		doneRate: metrics.NewMeter(reportWindow, 10),
		shedRate: metrics.NewMeter(reportWindow, 10),
		busyNs:   metrics.NewMeter(reportWindow, 10),
		sojourn:  metrics.NewWindowed(reportWindow, 5),
		wait:     metrics.NewWindowed(reportWindow, 5),
	}
	if cfg.MaxConcurrent > 0 {
		a.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return a
}

func overloadErr(why string) error {
	return transport.Errorf(transport.CodeOverloaded, "admission: %s", why)
}

// Admit gates one request. On acceptance it returns a release func the
// caller MUST invoke when the handler finishes; on shed it returns a
// CodeOverloaded error (or the context error if the caller gave up while
// queued). The queue is the set of goroutines blocked on the worker
// semaphore; its length is bounded before blocking.
func (a *Admission) Admit(ctx context.Context) (release func(), err error) {
	enq := time.Now()
	if int(a.queued.Value()) >= a.cfg.MaxQueue {
		a.shed(&a.shedQueue)
		return nil, overloadErr("queue full")
	}
	a.queued.Add(1)
	if a.sem != nil {
		select {
		case a.sem <- struct{}{}:
		case <-ctx.Done():
			a.queued.Add(-1)
			// The client departed while we queued; not a shed (the queue
			// was survivable), but the work must not run.
			return nil, transport.WrapCode(transport.CodeDeadline, ctx.Err(),
				"admission: caller gave up in queue after %v", time.Since(enq))
		}
	}
	a.queued.Add(-1)
	start := time.Now()
	waited := start.Sub(enq)

	reject := func(counter *metrics.Counter, why string) (func(), error) {
		if a.sem != nil {
			<-a.sem
		}
		a.shed(counter)
		return nil, overloadErr(why)
	}
	// CoDel on queueing delay: persistent standing queues mean arrival
	// rate exceeds service rate; shedding early keeps the queue short
	// enough that admitted requests still meet their deadlines.
	if a.codelDrop(waited, start) {
		return reject(&a.shedCoDel, "standing queue above target")
	}
	// Deadline budget: running a request whose client will time out before
	// the reply wastes exactly the capacity an overloaded tier lacks.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < a.expectedServiceTime() {
		return reject(&a.shedOver, "deadline budget spent")
	}

	a.inFlight.Add(1)
	a.wait.RecordDuration(waited)
	var once sync.Once
	return func() {
		once.Do(func() {
			end := time.Now()
			dur := end.Sub(start)
			a.inFlight.Add(-1)
			if a.sem != nil {
				<-a.sem
			}
			a.admitted.Inc()
			a.doneRate.Mark(1)
			a.busyNs.Mark(int64(dur))
			a.sojourn.RecordDuration(end.Sub(enq))
			a.observeServiceTime(dur)
		})
	}, nil
}

func (a *Admission) shed(counter *metrics.Counter) {
	counter.Inc()
	a.shedRate.Mark(1)
}

// expectedServiceTime is the EWMA of observed handler latency, floored at
// minBudget so a cold replica does not reject everything or nothing.
func (a *Admission) expectedServiceTime() time.Duration {
	a.mu.Lock()
	ewma := a.ewmaNs
	a.mu.Unlock()
	return max(time.Duration(ewma), minBudget)
}

func (a *Admission) observeServiceTime(dur time.Duration) {
	a.mu.Lock()
	if a.ewmaNs == 0 {
		a.ewmaNs = float64(dur)
	} else {
		const alpha = 0.2
		a.ewmaNs = (1-alpha)*a.ewmaNs + alpha*float64(dur)
	}
	a.mu.Unlock()
}

// codelDrop implements the CoDel state machine on observed queueing delay:
// once delay has stayed above target for a full interval the controller
// enters a dropping episode, shedding at a rate that grows with the square
// root of the drop count (the CoDel control law) until delay dips below
// target.
func (a *Admission) codelDrop(waited time.Duration, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if waited < codelTarget {
		a.firstAbove = time.Time{}
		a.dropping = false
		return false
	}
	if a.firstAbove.IsZero() {
		a.firstAbove = now
		return false
	}
	if !a.dropping {
		if now.Sub(a.firstAbove) < codelInterval {
			return false
		}
		a.dropping = true
		a.dropCount = 1
		a.dropNext = now.Add(a.nextDropGap())
		return true
	}
	if now.Before(a.dropNext) {
		return false
	}
	a.dropCount++
	a.dropNext = now.Add(a.nextDropGap())
	return true
}

func (a *Admission) nextDropGap() time.Duration {
	return time.Duration(float64(codelInterval) / math.Sqrt(float64(a.dropCount)))
}

// Report snapshots the replica's windowed load view.
func (a *Admission) Report() LoadReport {
	s := a.sojourn.Snapshot()
	w := a.wait.Snapshot()
	r := LoadReport{
		Workers:       a.cfg.MaxConcurrent,
		QueueDepth:    a.queued.Value(),
		InFlight:      a.inFlight.Value(),
		RatePerSec:    a.doneRate.Rate(),
		ShedPerSec:    a.shedRate.Rate(),
		P50Ns:         s.P50,
		P99Ns:         s.P99,
		QueueP99Ns:    w.P99,
		ServiceEWMANs: int64(a.expectedServiceTime()),
		Admitted:      a.admitted.Value(),
		Shed:          a.shedQueue.Value() + a.shedCoDel.Value() + a.shedOver.Value(),
	}
	if a.cfg.MaxConcurrent > 0 {
		// busyNs is handler-occupancy per second; across MaxConcurrent
		// workers full saturation marks MaxConcurrent seconds per second.
		r.Utilization = a.busyNs.Rate() / (float64(a.cfg.MaxConcurrent) * float64(time.Second))
		if r.Utilization > 1 {
			r.Utilization = 1
		}
	}
	return r
}

// Interceptor adapts the admission controller to an rpc.Server. Install it
// after tracing so sheds are visible in spans. The reserved load-report
// method bypasses admission: the control plane must be able to observe an
// overloaded replica, and a report that could be shed would blind the
// controller exactly when it matters.
func Interceptor(a *Admission) rpc.ServerInterceptor {
	return func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
		if ctx.Method == LoadMethod {
			return next(ctx, payload)
		}
		release, err := a.Admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return next(ctx, payload)
	}
}

// RESTInterceptor adapts the admission controller to a rest.Server; the
// reserved report path bypasses admission like the RPC report method.
func RESTInterceptor(a *Admission) rest.Interceptor {
	return func(ctx *rest.Ctx, body []byte, next rest.Handler) (any, error) {
		if ctx.Request.URL.Path == LoadPath {
			return next(ctx, body)
		}
		release, err := a.Admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return next(ctx, body)
	}
}
