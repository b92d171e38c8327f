// Package loadgen implements the suite's workload generation: open-loop
// arrival processes (Poisson, and non-homogeneous Poisson for diurnal
// patterns), closed-loop clients, and the key/user popularity
// distributions (Zipf, and the "top-u% of users issue 90% of requests"
// skew knob of Figure 22b). All generators are seeded and deterministic.
package loadgen

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/metrics"
)

// Arrivals produces inter-arrival gaps for an open-loop generator.
type Arrivals interface {
	// Next returns the gap before the next arrival.
	Next() time.Duration
}

// Source is a seeded, mutex-guarded random source for workload closures.
// The open- and closed-loop runners call the request generator from many
// goroutines at once; sharing one bare *rand.Rand there is a data race.
// Source gives workloads one seeded stream that is safe to draw from
// concurrently, so a fixed seed yields a reproducible request mix.
type Source struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSource returns a concurrency-safe source for the given seed.
func NewSource(seed uint64) *Source {
	return &Source{rng: rand.New(rand.NewPCG(seed, 0x50CE))}
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

// IntN returns a uniform draw in [0, n).
func (s *Source) IntN(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.IntN(n)
}

// Schedule materializes every arrival of an open-loop process inside the
// horizon as absolute offsets from the run start, for RunOpenLoop to play.
// Pre-generating the schedule makes a run's arrival times a pure function
// of the seed — the chaos experiments depend on that for bit-reproducible
// fault timing.
func Schedule(a Arrivals, horizon time.Duration) []time.Duration {
	var out []time.Duration
	for t := a.Next(); t < horizon; t += a.Next() {
		out = append(out, t)
	}
	return out
}

// Poisson is a homogeneous Poisson arrival process at a fixed rate.
type Poisson struct {
	rate float64 // arrivals per second
	rng  *rand.Rand
}

// NewPoisson returns a Poisson process with the given rate (per second).
func NewPoisson(rate float64, seed uint64) *Poisson {
	return &Poisson{rate: rate, rng: rand.New(rand.NewPCG(seed, 0xA11CE))}
}

// Next implements Arrivals: exponential inter-arrival times.
func (p *Poisson) Next() time.Duration {
	if p.rate <= 0 {
		return time.Hour
	}
	gap := p.rng.ExpFloat64() / p.rate
	return time.Duration(gap * float64(time.Second))
}

// ConstantRate spaces arrivals evenly, the deterministic baseline.
type ConstantRate struct{ Gap time.Duration }

// Next implements Arrivals.
func (c ConstantRate) Next() time.Duration { return c.Gap }

// Pattern maps elapsed time to a rate multiplier; Eval must be >= 0.
type Pattern interface {
	Eval(elapsed time.Duration) float64
}

// Diurnal is a day-shaped load curve: a raised cosine with its trough at
// phase 0, scaled so the multiplier swings between min and max. The paper
// compresses a day of Social Network traffic into minutes; Period controls
// that compression.
type Diurnal struct {
	Period   time.Duration
	Min, Max float64
}

// Eval implements Pattern.
func (d Diurnal) Eval(elapsed time.Duration) float64 {
	if d.Period <= 0 {
		return d.Max
	}
	phase := 2 * math.Pi * float64(elapsed%d.Period) / float64(d.Period)
	unit := (1 - math.Cos(phase)) / 2 // 0 at trough, 1 at peak
	return d.Min + (d.Max-d.Min)*unit
}

// Spike is flat at 1.0 with a multiplicative burst in [Start, Start+Width).
type Spike struct {
	Start, Width time.Duration
	Factor       float64
}

// Eval implements Pattern.
func (s Spike) Eval(elapsed time.Duration) float64 {
	if elapsed >= s.Start && elapsed < s.Start+s.Width {
		return s.Factor
	}
	return 1
}

// Ramp rises linearly from From to To across [Start, Start+Rise), holding
// flat before and after — the load-ramp shape the autoscale-live experiment
// drives through a static-vs-autoscaled deployment. A zero Rise is a step.
type Ramp struct {
	Start, Rise time.Duration
	From, To    float64
}

// Eval implements Pattern.
func (r Ramp) Eval(elapsed time.Duration) float64 {
	switch {
	case elapsed < r.Start:
		return r.From
	case elapsed >= r.Start+r.Rise:
		return r.To
	default:
		frac := float64(elapsed-r.Start) / float64(r.Rise)
		return r.From + (r.To-r.From)*frac
	}
}

// NonHomogeneous modulates a base Poisson process by a Pattern via
// thinning: candidate arrivals are generated at the peak rate and kept
// with probability rate(t)/peak.
type NonHomogeneous struct {
	base    *Poisson
	pattern Pattern
	peak    float64
	elapsed time.Duration
	rng     *rand.Rand
}

// NewNonHomogeneous creates a modulated process; baseRate is the rate at
// multiplier 1.0 and peakMultiplier bounds pattern.Eval.
func NewNonHomogeneous(baseRate float64, pattern Pattern, peakMultiplier float64, seed uint64) *NonHomogeneous {
	if peakMultiplier < 1 {
		peakMultiplier = 1
	}
	return &NonHomogeneous{
		base:    NewPoisson(baseRate*peakMultiplier, seed),
		pattern: pattern,
		peak:    peakMultiplier,
		rng:     rand.New(rand.NewPCG(seed, 0xD1A)),
	}
}

// Next implements Arrivals by thinning.
func (n *NonHomogeneous) Next() time.Duration {
	var total time.Duration
	for {
		gap := n.base.Next()
		total += gap
		n.elapsed += gap
		mult := n.pattern.Eval(n.elapsed)
		if mult < 0 {
			mult = 0
		}
		if n.rng.Float64() < mult/n.peak {
			return total
		}
	}
}

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^s, via an inverted CDF table. s=0 degenerates to uniform.
// Draw is safe for concurrent use.
type Zipf struct {
	cdf []float64
	mu  sync.Mutex
	rng *rand.Rand
}

// NewZipf builds the distribution over n items with exponent s >= 0.
func NewZipf(n int, s float64, seed uint64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rand.New(rand.NewPCG(seed, 0x21F))}
}

// Draw returns the next rank.
func (z *Zipf) Draw() int {
	z.mu.Lock()
	u := z.rng.Float64()
	z.mu.Unlock()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SkewedUsers models Figure 22b's skew knob: skewPct = 100 - u where u is
// the percentage of users responsible for 90% of requests. skewPct 0 means
// uniform; skewPct 99 means 1% of users issue 90% of the traffic.
// Draw is safe for concurrent use.
type SkewedUsers struct {
	n       int
	hotSize int
	mu      sync.Mutex
	rng     *rand.Rand
}

// NewSkewedUsers builds the distribution over n users at the given skew.
func NewSkewedUsers(n int, skewPct float64, seed uint64) *SkewedUsers {
	if n < 1 {
		n = 1
	}
	if skewPct < 0 {
		skewPct = 0
	}
	if skewPct > 99.9 {
		skewPct = 99.9
	}
	u := 100 - skewPct // % of users issuing 90% of requests
	hot := int(math.Round(float64(n) * u / 100))
	if hot < 1 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	return &SkewedUsers{n: n, hotSize: hot, rng: rand.New(rand.NewPCG(seed, 0x5EED))}
}

// Draw returns the next user index in [0, n).
func (s *SkewedUsers) Draw() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hotSize >= s.n {
		return s.rng.IntN(s.n)
	}
	if s.rng.Float64() < 0.9 {
		return s.rng.IntN(s.hotSize)
	}
	return s.hotSize + s.rng.IntN(s.n-s.hotSize)
}

// Result summarizes the measured part of one load-generation run: the
// requests issued at or after the warm-up cut.
type Result struct {
	Issued    int64
	Completed int64
	Errors    int64
	Elapsed   time.Duration // run length after the warm-up cut, drain included
	Latency   metrics.Snapshot
}

// Throughput returns completed requests per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// Arrival is one request handed to a run's do function.
type Arrival struct {
	// Index counts the run's requests from 0 in issue order; open-loop it
	// is the position in the schedule.
	Index int
	// At is the request's offset from the run start: open-loop the
	// scheduled offset, closed-loop the instant its worker sent it.
	At time.Duration
}

// run tallies one run: the requests whose At falls before warmup execute
// but leave no trace in the Result.
type run struct {
	start  time.Time
	warmup time.Duration
	mu     sync.Mutex
	res    Result
	hist   *metrics.Histogram
}

func newRun(warmup time.Duration) *run {
	return &run{start: time.Now(), warmup: warmup, hist: metrics.NewHistogram()}
}

// issue runs one request and records it, latency counted from a.At.
func (r *run) issue(ctx context.Context, a Arrival, do func(context.Context, Arrival) error) {
	err := do(ctx, a)
	lat := time.Since(r.start) - a.At
	if a.At < r.warmup {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Issued++
	if err != nil {
		r.res.Errors++
		return
	}
	r.res.Completed++
	r.hist.RecordDuration(lat)
}

func (r *run) result() Result {
	r.res.Elapsed = time.Since(r.start) - r.warmup
	r.res.Latency = r.hist.Snapshot()
	return r.res
}

// RunOpenLoop plays a Schedule: each request fires at its absolute offset
// from the run start, in its own goroutine, never waiting on an earlier
// response — the open-loop methodology the paper uses so that server
// slowdowns surface as queueing rather than reduced offered load. A send
// loop that falls behind fires the overdue arrivals back to back, and
// latency runs from the scheduled instant, so the lag is charged to the
// system under test instead of thinning the offered load. Arrivals
// scheduled before warmup are issued but not recorded. do must be safe for
// concurrent use; a cancelled ctx stops the schedule early.
func RunOpenLoop(ctx context.Context, sched []time.Duration, warmup time.Duration, do func(ctx context.Context, a Arrival) error) Result {
	r := newRun(warmup)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i, at := range sched {
		if d := at - time.Since(r.start); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.issue(ctx, Arrival{Index: i, At: at}, do)
		}()
	}
	wg.Wait()
	return r.result()
}

// RunClosedLoop drives the target with a fixed number of workers for the
// given duration, each issuing its next request only after the previous one
// completes — the contrast case to open-loop generation. Requests sent
// before warmup are issued but not recorded.
func RunClosedLoop(ctx context.Context, workers int, warmup, duration time.Duration, do func(ctx context.Context, a Arrival) error) Result {
	if workers < 1 {
		workers = 1
	}
	r := newRun(warmup)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				at := time.Since(r.start)
				if at >= duration {
					return
				}
				r.issue(ctx, Arrival{Index: int(next.Add(1) - 1), At: at}, do)
			}
		}()
	}
	wg.Wait()
	return r.result()
}
