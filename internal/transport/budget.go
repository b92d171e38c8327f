package transport

import (
	"context"
	"time"
)

// BudgetConfig tunes per-hop deadline budgeting. The zero value gets sane
// defaults from DeadlineBudget.
type BudgetConfig struct {
	// Fraction of the caller's remaining deadline granted to this call
	// (default 0.9). Each hop reserves the complement for its own
	// post-processing, so budgets shrink monotonically as a request
	// descends the service graph and every tier still has time to handle a
	// downstream timeout gracefully.
	Fraction float64

	Stats    *Stats
	Annotate AnnotateFunc
}

// budgetFloor is the minimum budget worth granting; when the remaining
// budget is below it the call fails fast with CodeDeadline instead of
// burning a doomed downstream round trip.
const budgetFloor = 100 * time.Microsecond

func (cfg BudgetConfig) withDefaults() BudgetConfig {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		cfg.Fraction = 0.9
	}
	return cfg
}

// DeadlineBudget returns a middleware that installs a shrunken per-hop
// deadline on the call's context. The tightened deadline propagates to the
// server via DeadlineHeader (written by the terminal invoker from the
// context), so a leaf tier observes a strictly tighter budget than the
// root — the mechanism that stops abandoned work from cascading down the
// graph.
func DeadlineBudget(cfg BudgetConfig) Middleware {
	cfg = cfg.withDefaults()
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) error {
			dl, ok := ctx.Deadline()
			if !ok {
				return next(ctx, call)
			}
			remaining := time.Until(dl)
			if remaining < budgetFloor {
				if cfg.Stats != nil {
					cfg.Stats.DeadlineExhausted.Inc()
				}
				return WrapCode(CodeDeadline, context.DeadlineExceeded,
					"transport: no deadline budget left for %s.%s (%v remaining)",
					call.Target, call.Method, remaining)
			}
			budget := max(time.Duration(float64(remaining)*cfg.Fraction), budgetFloor)
			if cfg.Stats != nil {
				cfg.Stats.DeadlineTruncated.Inc()
			}
			if cfg.Annotate != nil {
				cfg.Annotate(ctx, "budget."+call.Target, budget.String())
			}
			bctx, cancel := context.WithDeadline(ctx, time.Now().Add(budget))
			defer cancel()
			return next(bctx, call)
		}
	}
}
