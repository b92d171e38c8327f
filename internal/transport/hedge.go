package transport

import (
	"context"
	"time"
)

// HedgeConfig tunes request hedging. The zero value gets sane defaults from
// Hedge.
type HedgeConfig struct {
	// Delay is the static hedge delay floor (default 1ms): if the primary
	// attempt has not returned after it, a secondary attempt is issued and
	// the first response wins.
	Delay time.Duration
	// BudgetFraction, when non-zero, scales the delay to that fraction of
	// the call's remaining deadline budget (never below Delay). In a chain
	// with per-hop deadline budgets this nests the hedges correctly: deeper
	// hops hold tighter budgets, so they hedge sooner, the rescue closest to
	// a slow server wins first, and upstream primaries finish before their
	// own (larger) delays fire — no redundant upstream hedges.
	BudgetFraction float64
	// MaxHedges bounds the extra attempts per call (default 1). Further
	// hedges are staggered by the same delay.
	MaxHedges int

	Stats    *Stats
	Annotate AnnotateFunc
}

func (cfg HedgeConfig) withDefaults() HedgeConfig {
	if cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	if cfg.MaxHedges <= 0 {
		cfg.MaxHedges = 1
	}
	return cfg
}

// Hedge returns a hedged-requests middleware: when the primary attempt is
// slower than the hedge delay, a second attempt races it on a fresh clone
// of the call (below a load balancer this lands on another replica) and the
// first successful response wins; the loser is canceled. Hedging converts
// the tail of the latency distribution into a small amount of extra load —
// the counter to the paper's finding that one slow server on any critical
// path collapses end-to-end goodput. A stream open is not hedged: it goes to
// next on the caller's ctx, which governs the stream's whole life, where an
// attempt's context would end when Hedge returns.
func Hedge(cfg HedgeConfig) Middleware {
	cfg = cfg.withDefaults()
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) error {
			if call.Stream {
				return next(ctx, call)
			}
			delay := cfg.Delay
			if cfg.BudgetFraction > 0 {
				if dl, ok := ctx.Deadline(); ok {
					if d := time.Duration(float64(time.Until(dl)) * cfg.BudgetFraction); d > delay {
						delay = d
					}
				}
			}

			hctx, cancel := context.WithCancel(ctx)
			defer cancel() // reap the losing attempt

			type result struct {
				att    *Call
				err    error
				hedged bool
			}
			results := make(chan result, cfg.MaxHedges+1)
			attempts := make([]*Call, 0, cfg.MaxHedges+1)
			launch := func(hedged bool) {
				att := call.Clone()
				attempts = append(attempts, att)
				go func() {
					results <- result{att, next(hctx, att), hedged}
				}()
			}

			launch(false)
			launched, inflight := 1, 1
			timer := time.NewTimer(delay)
			defer timer.Stop()
			var firstErr error
			for {
				select {
				case r := <-results:
					inflight--
					if r.err == nil {
						call.Reply = r.att.Reply
						// Mark the still-inflight losers before cancel fires
						// (the deferred cancel runs after this), so their
						// breakers see the outrun flag when they unwind.
						for _, att := range attempts {
							if att != r.att {
								att.MarkOutrun()
							}
						}
						if r.hedged {
							if cfg.Stats != nil {
								cfg.Stats.HedgeWins.Inc()
							}
							if cfg.Annotate != nil {
								cfg.Annotate(ctx, "hedge.won", call.Target)
							}
						}
						return nil
					}
					if firstErr == nil {
						firstErr = r.err
					}
					if inflight == 0 {
						// Every launched attempt failed. Failure handling is
						// the retry layer's job, not the hedge's.
						return firstErr
					}
				case <-timer.C:
					if launched > cfg.MaxHedges {
						break
					}
					if cfg.Stats != nil {
						cfg.Stats.Hedges.Inc()
					}
					launch(true)
					launched++
					inflight++
					if launched <= cfg.MaxHedges {
						timer.Reset(delay)
					}
				}
			}
		}
	}
}
