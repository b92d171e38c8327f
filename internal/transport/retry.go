package transport

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// RetryConfig tunes the retry middleware. The zero value gets sane defaults
// from Retry.
type RetryConfig struct {
	// Attempts is the total attempt cap including the first (default 3).
	Attempts int

	Stats    *Stats
	Annotate AnnotateFunc
}

const (
	// Retry i waits a uniformly random ("full jitter") duration in
	// [0, min(retryMaxDelay, retryBaseDelay·2^i)].
	retryBaseDelay = 500 * time.Microsecond
	retryMaxDelay  = 50 * time.Millisecond
	// Each successful call refills the token-bucket retry budget by
	// retryBudgetRatio tokens (at most ~10% extra load from retries in steady
	// state), up to retryBudgetBurst. Under a full outage the bucket drains
	// and retries stop, so the retry layer cannot amplify the very overload
	// it is reacting to.
	retryBudgetRatio = 0.1
	retryBudgetBurst = 10
)

func (cfg RetryConfig) withDefaults() RetryConfig {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	return cfg
}

// retryBudget is a token bucket refilled by successes, spent by retries.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
}

func (b *retryBudget) success() {
	b.mu.Lock()
	b.tokens = min(b.tokens+retryBudgetRatio, retryBudgetBurst)
	b.mu.Unlock()
}

func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Retry returns a middleware that re-issues retryable failures (see
// Retryable) with exponential backoff plus full jitter, gated by a
// token-bucket retry budget. Each attempt runs on a fresh clone of the
// call, so header mutations and replies never leak between attempts. One
// middleware instance owns one budget; install a fresh instance per target.
func Retry(cfg RetryConfig) Middleware {
	cfg = cfg.withDefaults()
	budget := &retryBudget{tokens: retryBudgetBurst}
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call) error {
			for attempt := 0; ; attempt++ {
				att := call.Clone()
				err := next(ctx, att)
				if err == nil {
					call.Reply = att.Reply
					call.StreamBody = att.StreamBody
					budget.success()
					if attempt > 0 && cfg.Annotate != nil {
						cfg.Annotate(ctx, "retry.attempts", strconv.Itoa(attempt+1))
					}
					return nil
				}
				if attempt+1 >= cfg.Attempts || !Retryable(err) || ctx.Err() != nil {
					return err
				}
				// Admission sheds are free: the replica rejected before doing
				// any work, so the retry adds no amplification — it just moves
				// the request to a peer with capacity. Charging sheds to the
				// budget would drain it exactly when an overloaded tier is
				// redirecting load toward its remaining healthy replicas.
				if !IsCode(err, CodeOverloaded) && !budget.take() {
					if cfg.Stats != nil {
						cfg.Stats.RetryBudgetExhausted.Inc()
					}
					return err
				}
				if cfg.Stats != nil {
					cfg.Stats.Retries.Inc()
				}
				ceil := min(retryMaxDelay, retryBaseDelay<<attempt)
				backoff := time.Duration(rand.Int64N(int64(ceil) + 1))
				timer := time.NewTimer(backoff)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return err
				}
			}
		}
	}
}
