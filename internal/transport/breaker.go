package transport

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is the cause carried by breaker rejections; detect it with
// IsBreakerOpen. The rejection itself is a CodeUnavailable error, so load
// balancers fail the call over to another replica.
var ErrBreakerOpen = errors.New("circuit breaker open")

// IsBreakerOpen reports whether err is a circuit-breaker rejection.
func IsBreakerOpen(err error) bool { return errors.Is(err, ErrBreakerOpen) }

// BreakerConfig tunes a circuit breaker. The zero value gets sane defaults
// from Breaker.
type BreakerConfig struct {
	// Failures is the consecutive-failure count that trips a closed breaker
	// open (default 5).
	Failures int
	// Cooldown is how long an open breaker rejects calls before admitting a
	// half-open probe (default 1s).
	Cooldown time.Duration
	// Probes is the number of consecutive probe successes in half-open
	// needed to close again (default 1); any probe failure re-opens.
	Probes int
	// SlowThreshold, when non-zero, counts a call that ran longer than it as
	// a failure when the call either completed (slow success) or was
	// canceled because a sibling hedge attempt outran it (Call.Outrun). A
	// cancellation that arrives from further up the chain stays neutral: an
	// ancestor rescuing the request says nothing about THIS replica, only an
	// attempt losing to its own direct peer does. This latency-outlier
	// signal is what catches the paper's Fig 22c slow servers, which never
	// return errors, only tail latency — and the outrun gate keeps latency
	// cascading up from a deeper slow server from charging every healthy
	// replica above it.
	SlowThreshold time.Duration
	// NeutralDeadline, when set, makes CodeDeadline outcomes neutral instead
	// of failures. In a deep chain a spent budget indicts the whole subtree
	// below the callee, not the adjacent replica, so charging it to the
	// next hop trips healthy replicas whenever anything below them is slow;
	// mid-chain clients relying on the outrun signal for slow-replica
	// attribution should set this. Leaf clients, where the callee does all
	// the work, should leave deadline failures counting.
	NeutralDeadline bool
	// MaxEjected caps how many replicas of one target may be held open at
	// once (Envoy's max_ejection_percent, as a count). It takes effect when
	// the per-replica breakers of a target are built through
	// ResilienceConfig.InstrumentedBackendFactory, which gives them a shared
	// ledger; a breaker that cannot get an ejection slot stays closed. The
	// cap stops latency that cascades up from a deeper slow server from
	// ejecting an entire healthy tier. Zero means no cap.
	MaxEjected int

	Stats    *Stats
	Annotate AnnotateFunc

	ledger *ejectionLedger // shared per target by InstrumentedBackendFactory
}

// ejectionLedger bounds simultaneous open breakers across one target's
// replicas.
type ejectionLedger struct {
	mu   sync.Mutex
	open int
	cap  int
}

func (l *ejectionLedger) tryEject() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.open >= l.cap {
		return false
	}
	l.open++
	return true
}

func (l *ejectionLedger) restore() {
	l.mu.Lock()
	l.open--
	l.mu.Unlock()
}

func (cfg BreakerConfig) withDefaults() BreakerConfig {
	if cfg.Failures <= 0 {
		cfg.Failures = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Second
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 1
	}
	return cfg
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateNames are the human-readable states reported by the probe
// returned from BreakerWithProbe, in the order of the state constants.
var breakerStateNames = [...]string{"closed", "open", "half-open"}

type breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     int
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	openedAt  time.Time // when the breaker last tripped
	probing   bool      // a half-open probe is in flight
}

// allow decides whether a call may proceed, advancing open→half-open after
// the cooldown.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.successes = 0
		b.probing = true
		if b.cfg.Stats != nil {
			b.cfg.Stats.BreakerHalfOpened.Inc()
		}
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one observed outcome back into the state machine.
func (b *breaker) record(call *Call, err error, elapsed time.Duration) {
	canceled := err != nil && errors.Is(err, context.Canceled)
	slow := b.cfg.SlowThreshold > 0 && elapsed >= b.cfg.SlowThreshold &&
		(!canceled || call.Outrun())
	failure := slow || FailureSignal(err)
	if failure && !slow && b.cfg.NeutralDeadline && IsCode(err, CodeDeadline) {
		failure = false
	}
	// A cancellation that is not a direct hedge loss — or a neutralized
	// deadline — says nothing about this replica: neutral.
	neutral := !failure && err != nil && (canceled || IsCode(err, CodeDeadline))

	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if failure {
			b.failures++
			if b.failures >= b.cfg.Failures {
				b.trip()
			}
		} else if !neutral {
			b.failures = 0
		}
	case breakerHalfOpen:
		b.probing = false
		if failure {
			b.trip()
		} else if !neutral {
			b.successes++
			if b.successes >= b.cfg.Probes {
				b.state = breakerClosed
				b.failures = 0
				if b.cfg.ledger != nil {
					b.cfg.ledger.restore()
				}
				if b.cfg.Stats != nil {
					b.cfg.Stats.BreakerClosed.Inc()
				}
			}
		}
	default:
		// Calls admitted before the trip may land while open; ignore them.
	}
}

// trip moves to open; caller holds b.mu. A closed breaker must first claim
// an ejection slot from the shared ledger (half-open already holds one); if
// the target is at its ejection cap the breaker stays closed and just
// resets its failure streak.
func (b *breaker) trip() {
	if b.state == breakerClosed && b.cfg.ledger != nil && !b.cfg.ledger.tryEject() {
		b.failures = 0
		return
	}
	b.state = breakerOpen
	b.failures = 0
	b.openedAt = time.Now()
	if b.cfg.Stats != nil {
		b.cfg.Stats.BreakerOpened.Inc()
	}
}

// Breaker returns a circuit-breaker middleware guarding one target. Closed
// it passes calls through counting consecutive failures; tripped open it
// rejects instantly with CodeUnavailable (cause ErrBreakerOpen) so the
// caller fails over; after Cooldown it admits single half-open probes and
// closes again once Probes of them succeed. Install one instance per
// replica (see ResilienceConfig.BackendMiddleware) so a slow instance is
// ejected without condemning its healthy peers.
func Breaker(cfg BreakerConfig) Middleware {
	mw, _ := BreakerWithProbe(cfg)
	return mw
}

// BreakerWithProbe is Breaker plus a live state probe ("closed", "open",
// "half-open") for health snapshots — lb.Balanced surfaces it through
// per-backend stats so controllers and experiments can see ejections
// without reaching into transport internals.
func BreakerWithProbe(cfg BreakerConfig) (Middleware, func() string) {
	cfg = cfg.withDefaults()
	br := &breaker{cfg: cfg}
	probe := func() string {
		br.mu.Lock()
		defer br.mu.Unlock()
		return breakerStateNames[br.state]
	}
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) error {
			if !br.allow() {
				if cfg.Stats != nil {
					cfg.Stats.BreakerRejected.Inc()
				}
				if cfg.Annotate != nil {
					cfg.Annotate(ctx, "breaker.rejected", call.Target)
				}
				return WrapCode(CodeUnavailable, ErrBreakerOpen,
					"transport: %s.%s: %v", call.Target, call.Method, ErrBreakerOpen)
			}
			start := time.Now()
			err := next(ctx, call)
			br.record(call, err, time.Since(start))
			return err
		}
	}, probe
}
