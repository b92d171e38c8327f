package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/vtime"
)

func TestChainOrder(t *testing.T) {
	var order []string
	mw := func(name string) Middleware {
		return func(next Invoker) Invoker {
			return func(ctx context.Context, call *Call) error {
				order = append(order, name+"-pre")
				err := next(ctx, call)
				order = append(order, name+"-post")
				return err
			}
		}
	}
	terminal := func(ctx context.Context, call *Call) error {
		order = append(order, "terminal")
		call.Reply = []byte("ok")
		return nil
	}
	inv := Build(terminal, mw("a"), mw("b"))
	call := NewCall("svc", "M", nil)
	if err := inv(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-pre", "b-pre", "terminal", "b-post", "a-post"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if string(call.Reply) != "ok" {
		t.Fatalf("reply = %q", call.Reply)
	}
}

func TestCallLazyHeadersAndClone(t *testing.T) {
	call := NewCall("svc", "M", []byte("req"))
	if call.Headers != nil {
		t.Fatal("headers allocated up front")
	}
	cp := call.Clone()
	if cp.Headers != nil {
		t.Fatal("clone allocated headers")
	}
	call.SetHeader("k", "v")
	cp2 := call.Clone()
	cp2.SetHeader("k", "other")
	if call.Headers["k"] != "v" {
		t.Fatal("clone shares header map with original")
	}
	if &call.Payload[0] != &cp2.Payload[0] {
		t.Fatal("clone copied the payload; it should share it read-only")
	}
}

func TestDeadlineCodec(t *testing.T) {
	want := time.Unix(0, 1234567890)
	got, ok := ParseDeadline(EncodeDeadline(want))
	if !ok || !got.Equal(want) {
		t.Fatalf("roundtrip = %v, %v", got, ok)
	}
	if _, ok := ParseDeadline("bogus"); ok {
		t.Fatal("parsed garbage")
	}
}

func TestRetryableAndFailureSignal(t *testing.T) {
	cases := []struct {
		err       error
		retryable bool
		failure   bool
	}{
		{nil, false, false},
		{errors.New("conn lost"), true, true},
		{context.Canceled, false, false},
		{context.DeadlineExceeded, false, true},
		{Errorf(CodeNotFound, "nope"), false, false},
		{Errorf(CodeUnavailable, "shed"), true, true},
		{Errorf(CodeDeadline, "late"), false, true},
		{WrapCode(CodeDeadline, context.Canceled, "hedge loser"), false, false},
		{WrapCode(CodeDeadline, context.DeadlineExceeded, "spent"), false, true},
		{WrapCode(CodeUnavailable, ErrBreakerOpen, "open"), true, true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.retryable {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.retryable)
		}
		if got := FailureSignal(c.err); got != c.failure {
			t.Errorf("FailureSignal(%v) = %v, want %v", c.err, got, c.failure)
		}
	}
}

func TestDeadlineBudgetShrinks(t *testing.T) {
	var inner time.Duration
	stats := &Stats{}
	inv := Build(func(ctx context.Context, call *Call) error {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatal("no deadline inside budget")
		}
		inner = time.Until(dl)
		return nil
	}, DeadlineBudget(BudgetConfig{Fraction: 0.5, Stats: stats}))

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := inv(ctx, NewCall("svc", "M", nil)); err != nil {
		t.Fatal(err)
	}
	if inner <= 0 || inner > 600*time.Millisecond {
		t.Fatalf("budget = %v, want ~500ms", inner)
	}
	if stats.DeadlineTruncated.Value() != 1 {
		t.Fatalf("DeadlineTruncated = %d", stats.DeadlineTruncated.Value())
	}
}

func TestDeadlineBudgetFailsFastWhenSpent(t *testing.T) {
	stats := &Stats{}
	called := false
	inv := Build(func(ctx context.Context, call *Call) error {
		called = true
		return nil
	}, DeadlineBudget(BudgetConfig{Stats: stats}))

	// Less than the 100µs floor is left before the call starts.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
	defer cancel()
	err := inv(ctx, NewCall("svc", "M", nil))
	if !IsCode(err, CodeDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want CodeDeadline wrapping DeadlineExceeded", err)
	}
	if called {
		t.Fatal("doomed call was still issued")
	}
	if stats.DeadlineExhausted.Value() != 1 {
		t.Fatalf("DeadlineExhausted = %d", stats.DeadlineExhausted.Value())
	}
}

func TestRetrySucceedsAfterTransportFailures(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		var attempts atomic.Int64
		inv := Build(func(ctx context.Context, call *Call) error {
			if attempts.Add(1) < 3 {
				return errors.New("conn lost")
			}
			call.Reply = []byte("ok")
			return nil
		}, Retry(RetryConfig{Attempts: 3, Stats: stats}))

		call := NewCall("svc", "M", nil)
		if err := inv(context.Background(), call); err != nil {
			t.Fatal(err)
		}
		if string(call.Reply) != "ok" {
			t.Fatalf("reply = %q, want ok (copied from the winning attempt)", call.Reply)
		}
		if got := stats.Retries.Value(); got != 2 {
			t.Fatalf("Retries = %d, want 2", got)
		}
	})
}

func TestRetryStopsOnApplicationError(t *testing.T) {
	var attempts atomic.Int64
	inv := Build(func(ctx context.Context, call *Call) error {
		attempts.Add(1)
		return Errorf(CodeNotFound, "nope")
	}, Retry(RetryConfig{Attempts: 5}))
	if err := inv(context.Background(), NewCall("svc", "M", nil)); !IsCode(err, CodeNotFound) {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (application errors must not retry)", attempts.Load())
	}
}

func TestRetryBudgetStopsRetryStorm(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		var attempts atomic.Int64
		inv := Build(func(ctx context.Context, call *Call) error {
			attempts.Add(1)
			return errors.New("down")
		}, Retry(RetryConfig{Attempts: 2, Stats: stats}))

		// Never a success, so the bucket starts at its burst of 10 and never
		// refills: only the first 10 calls may retry.
		for i := 0; i < 11; i++ {
			inv(context.Background(), NewCall("svc", "M", nil)) //nolint:errcheck
		}
		if got := stats.Retries.Value(); got != 10 {
			t.Fatalf("Retries = %d, want 10 (budget-capped)", got)
		}
		if got := stats.RetryBudgetExhausted.Value(); got != 1 {
			t.Fatalf("RetryBudgetExhausted = %d, want 1", got)
		}
		if attempts.Load() != 21 {
			t.Fatalf("attempts = %d, want 21", attempts.Load())
		}
	})
}

func TestBreakerStateMachine(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		var mode atomic.Int32 // 0 = fail, 1 = succeed
		inv := Build(func(ctx context.Context, call *Call) error {
			if mode.Load() == 0 {
				return errors.New("down")
			}
			return nil
		}, Breaker(BreakerConfig{Failures: 3, Cooldown: time.Second, Stats: stats}))

		ctx := context.Background()
		// Trip it: 3 consecutive failures.
		for i := 0; i < 3; i++ {
			if err := inv(ctx, NewCall("svc", "M", nil)); err == nil {
				t.Fatal("want failure")
			}
		}
		if stats.BreakerOpened.Value() != 1 {
			t.Fatalf("BreakerOpened = %d", stats.BreakerOpened.Value())
		}
		// Open: rejects instantly with a retryable CodeUnavailable.
		err := inv(ctx, NewCall("svc", "M", nil))
		if !errors.Is(err, ErrBreakerOpen) || !IsCode(err, CodeUnavailable) || !Retryable(err) {
			t.Fatalf("open-state err = %v", err)
		}
		if stats.BreakerRejected.Value() != 1 {
			t.Fatalf("BreakerRejected = %d", stats.BreakerRejected.Value())
		}

		// Still open a nanosecond short of the cooldown.
		vtime.Advance(time.Second - time.Nanosecond)
		if !errors.Is(inv(ctx, NewCall("svc", "M", nil)), ErrBreakerOpen) {
			t.Fatal("breaker let a call through before its cooldown had run")
		}
		// After cooldown: half-open admits a probe; server recovered.
		vtime.Advance(time.Nanosecond)
		mode.Store(1)
		if err := inv(ctx, NewCall("svc", "M", nil)); err != nil {
			t.Fatalf("probe: %v", err)
		}
		if stats.BreakerHalfOpened.Value() != 1 {
			t.Fatalf("BreakerHalfOpened = %d", stats.BreakerHalfOpened.Value())
		}
		if stats.BreakerClosed.Value() != 1 {
			t.Fatalf("BreakerClosed = %d (the probe's success should close)", stats.BreakerClosed.Value())
		}
		// Closed again: calls flow.
		if err := inv(ctx, NewCall("svc", "M", nil)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		inv := Build(func(ctx context.Context, call *Call) error {
			return errors.New("still down")
		}, Breaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Stats: stats}))

		ctx := context.Background()
		inv(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // trips
		vtime.Advance(time.Second)         // the cooldown
		inv(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // failed probe re-trips
		if stats.BreakerOpened.Value() != 2 {
			t.Fatalf("BreakerOpened = %d, want 2", stats.BreakerOpened.Value())
		}
		if !errors.Is(inv(ctx, NewCall("svc", "M", nil)), ErrBreakerOpen) {
			t.Fatal("breaker should be open again")
		}
	})
}

func TestBreakerSlowCallCountsAsFailure(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		inv := Build(func(ctx context.Context, call *Call) error {
			vtime.Advance(10 * time.Millisecond) // slower than the threshold, but succeeds
			return nil
		}, Breaker(BreakerConfig{Failures: 2, SlowThreshold: time.Millisecond, Stats: stats}))

		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if err := inv(ctx, NewCall("svc", "M", nil)); err != nil {
				t.Fatal(err)
			}
		}
		if stats.BreakerOpened.Value() != 1 {
			t.Fatal("slow-but-successful calls should trip the breaker")
		}
	})
}

func TestHedgeRescuesSlowPrimary(t *testing.T) {
	stats := &Stats{}
	var calls atomic.Int64
	inv := Build(func(ctx context.Context, call *Call) error {
		if calls.Add(1) == 1 {
			// Slow primary: parks until canceled by the hedge's win.
			<-ctx.Done()
			return WrapCode(CodeDeadline, ctx.Err(), "canceled: %v", ctx.Err())
		}
		call.Reply = []byte("from-hedge")
		return nil
	}, Hedge(HedgeConfig{Delay: time.Millisecond, Stats: stats}))

	call := NewCall("svc", "M", nil)
	if err := inv(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	if string(call.Reply) != "from-hedge" {
		t.Fatalf("reply = %q", call.Reply)
	}
	if stats.Hedges.Value() != 1 || stats.HedgeWins.Value() != 1 {
		t.Fatalf("Hedges = %d, HedgeWins = %d, want 1/1", stats.Hedges.Value(), stats.HedgeWins.Value())
	}
}

func TestHedgeAllAttemptsFailReturnsFirstError(t *testing.T) {
	first := errors.New("primary down")
	var calls atomic.Int64
	inv := Build(func(ctx context.Context, call *Call) error {
		if calls.Add(1) == 1 {
			return first
		}
		return errors.New("hedge down too")
	}, Hedge(HedgeConfig{Delay: time.Nanosecond}))
	// The primary fails instantly; no hedge needs to launch for the error to
	// surface, but either way the first error wins.
	if err := inv(context.Background(), NewCall("svc", "M", nil)); !errors.Is(err, first) {
		t.Fatalf("err = %v, want %v", err, first)
	}
}

func TestResilienceStackWiring(t *testing.T) {
	cfg := NewResilience()
	if len(cfg.Stack()) != 3 {
		t.Fatalf("Stack = %d middlewares, want 3", len(cfg.Stack()))
	}
	if len(cfg.BackendMiddleware()) != 1 {
		t.Fatalf("BackendMiddleware = %d, want 1", len(cfg.BackendMiddleware()))
	}
	cfg.Hedge = nil
	cfg.Breaker = nil
	if len(cfg.Stack()) != 2 || len(cfg.BackendMiddleware()) != 0 {
		t.Fatal("nil sub-configs should disable their middleware")
	}
}

func TestDelayHonorsContext(t *testing.T) {
	inv := Build(func(ctx context.Context, call *Call) error {
		t.Fatal("canceled call reached the terminal")
		return nil
	}, Delay(time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := inv(ctx, NewCall("svc", "M", nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestBreakerOutrunAttribution is the slow-replica attribution contract: a
// canceled call charges the breaker only when the cancellation is a direct
// hedge loss (a sibling outran it); a cancellation from further up the
// chain is neutral, however slow the call looked.
func TestBreakerOutrunAttribution(t *testing.T) {
	vtime.Run(t, func() {
		// Neutral: parent cancel, no hedge involved.
		stats := &Stats{}
		parked := Build(func(ctx context.Context, call *Call) error {
			<-ctx.Done()
			return ctx.Err()
		}, Breaker(BreakerConfig{Failures: 1, SlowThreshold: time.Millisecond, Stats: stats}))
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		if err := parked(ctx, NewCall("svc", "M", nil)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
		if stats.BreakerOpened.Value() != 0 {
			t.Fatal("ancestor cancellation must not charge the breaker")
		}

		// Charged: the same slow call loses to a sibling hedge attempt.
		stats = &Stats{}
		var calls atomic.Int64
		inv := Build(func(ctx context.Context, call *Call) error {
			if calls.Add(1) == 1 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		},
			Hedge(HedgeConfig{Delay: 5 * time.Millisecond, Stats: stats}),
			Breaker(BreakerConfig{Failures: 1, SlowThreshold: time.Millisecond, Stats: stats}))
		if err := inv(context.Background(), NewCall("svc", "M", nil)); err != nil {
			t.Fatal(err)
		}
		vtime.Wait() // the loser records asynchronously after the hedge returns
		if stats.BreakerOpened.Value() != 1 {
			t.Fatal("outrun loser never charged the breaker")
		}
	})
}

// TestBreakerNeutralDeadline checks the mid-chain tuning: CodeDeadline
// outcomes neither charge the breaker nor clear its failure streak.
func TestBreakerNeutralDeadline(t *testing.T) {
	stats := &Stats{}
	var mode atomic.Int32 // 0 = deadline error, 1 = transport error
	inv := Build(func(ctx context.Context, call *Call) error {
		if mode.Load() == 0 {
			return Errorf(CodeDeadline, "budget spent downstream")
		}
		return errors.New("conn reset")
	}, Breaker(BreakerConfig{Failures: 2, NeutralDeadline: true, Stats: stats}))

	ctx := context.Background()
	mode.Store(1)
	inv(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // failure 1 of 2
	mode.Store(0)
	for i := 0; i < 5; i++ {
		inv(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // neutral
	}
	if stats.BreakerOpened.Value() != 0 {
		t.Fatal("neutralized deadlines must not charge the breaker")
	}
	mode.Store(1)
	inv(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // failure 2 of 2
	if stats.BreakerOpened.Value() != 1 {
		t.Fatal("deadline outcomes must not clear the failure streak either")
	}
}

// TestBreakerEjectionCapSharedLedger: replicas built through
// BackendFactory — the factory core.App.RPC and ShardedRPC install — share
// an ejection ledger; with MaxEjected 1 the second breaker cannot trip
// while the first holds the slot, and claims it once the first closes.
func TestBreakerEjectionCapSharedLedger(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		cfg := &ResilienceConfig{
			Breaker: &BreakerConfig{Failures: 1, Cooldown: time.Second, MaxEjected: 1},
			Stats:   stats,
		}
		factory := cfg.BackendFactory()
		var aDown, bDown atomic.Bool
		mk := func(down *atomic.Bool, mws []Middleware) Invoker {
			return Build(func(ctx context.Context, call *Call) error {
				if down.Load() {
					return errors.New("down")
				}
				return nil
			}, mws...)
		}
		invA, invB := mk(&aDown, factory("a")), mk(&bDown, factory("b"))

		ctx := context.Background()
		aDown.Store(true)
		bDown.Store(true)
		invA(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // trips A
		if stats.BreakerOpened.Value() != 1 {
			t.Fatalf("BreakerOpened = %d, want 1", stats.BreakerOpened.Value())
		}
		// B fails repeatedly but the target is at its ejection cap: it must stay
		// closed and keep admitting calls rather than rejecting.
		for i := 0; i < 3; i++ {
			if err := invB(ctx, NewCall("svc", "M", nil)); errors.Is(err, ErrBreakerOpen) {
				t.Fatal("capped breaker must not reject")
			}
		}
		if stats.BreakerOpened.Value() != 1 {
			t.Fatal("second trip should have been blocked by the ejection cap")
		}
		// A recovers and closes on its half-open probe, freeing the slot; B's
		// next failure claims it.
		aDown.Store(false)
		vtime.Advance(time.Second) // the cooldown
		if err := invA(ctx, NewCall("svc", "M", nil)); err != nil {
			t.Fatalf("probe: %v", err)
		}
		invB(ctx, NewCall("svc", "M", nil)) //nolint:errcheck // trips B
		if stats.BreakerOpened.Value() != 2 {
			t.Fatalf("BreakerOpened = %d, want 2 after slot freed", stats.BreakerOpened.Value())
		}
		if !errors.Is(invB(ctx, NewCall("svc", "M", nil)), ErrBreakerOpen) {
			t.Fatal("B should now be open")
		}
	})
}

// TestHedgeBudgetFractionDelay: with a deadline on the context, the hedge
// delay scales to BudgetFraction of the remaining budget instead of the
// static floor, so a moderately slow call under a generous deadline does
// not hedge at all.
func TestHedgeBudgetFractionDelay(t *testing.T) {
	vtime.Run(t, func() {
		mkInv := func(stats *Stats) Invoker {
			return Build(func(ctx context.Context, call *Call) error {
				vtime.Advance(20 * time.Millisecond)
				return nil
			}, Hedge(HedgeConfig{Delay: time.Millisecond, BudgetFraction: 0.5, Stats: stats}))
		}

		stats := &Stats{}
		ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
		defer cancel()
		if err := mkInv(stats)(ctx, NewCall("svc", "M", nil)); err != nil {
			t.Fatal(err)
		}
		if stats.Hedges.Value() != 0 {
			t.Fatalf("Hedges = %d; 20ms < half of a 400ms budget, must not hedge", stats.Hedges.Value())
		}

		// No deadline: the static floor applies and the same call hedges.
		stats = &Stats{}
		if err := mkInv(stats)(context.Background(), NewCall("svc", "M", nil)); err != nil {
			t.Fatal(err)
		}
		if stats.Hedges.Value() == 0 {
			t.Fatal("without a deadline the 1ms floor should have hedged")
		}
	})
}

// An admission-control shed (CodeOverloaded) is retryable — another replica
// may have capacity — but must not consume retry-budget tokens: the shedding
// replica did no work, so the retry adds no amplification. If sheds drained
// the bucket, clients of an overloaded tier would lose the very tokens they
// need to route around real failures.
func TestRetryOverloadShedDoesNotConsumeBudget(t *testing.T) {
	vtime.Run(t, func() {
		stats := &Stats{}
		var attempts atomic.Int64
		inv := Build(func(ctx context.Context, call *Call) error {
			if attempts.Add(1)%2 == 1 {
				return Errorf(CodeOverloaded, "queue full")
			}
			return nil
		}, Retry(RetryConfig{Attempts: 3, Stats: stats}))

		// Every call sheds once then succeeds on the free retry. A
		// budget-charged retry path nets -0.9 tokens a call from the burst of
		// 10, so it would run dry by the twelfth call; the shed-exempt path
		// affords them all.
		const calls = 20
		for i := 0; i < calls; i++ {
			if err := inv(context.Background(), NewCall("svc", "M", nil)); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if got := stats.Retries.Value(); got != calls {
			t.Fatalf("Retries = %d, want %d (sheds retry for free)", got, calls)
		}
		if got := stats.RetryBudgetExhausted.Value(); got != 0 {
			t.Fatalf("RetryBudgetExhausted = %d, want 0", got)
		}

		// Transport failures still pay: same shape, but the budget gates them.
		stats = &Stats{}
		var n atomic.Int64
		inv = Build(func(ctx context.Context, call *Call) error {
			if n.Add(1)%2 == 1 {
				return errors.New("conn lost")
			}
			return nil
		}, Retry(RetryConfig{Attempts: 3, Stats: stats}))
		for i := 0; i < calls; i++ {
			inv(context.Background(), NewCall("svc", "M", nil)) //nolint:errcheck
		}
		if got := stats.RetryBudgetExhausted.Value(); got == 0 {
			t.Fatal("transport failures must still consume the retry budget")
		}
	})
}

// A replica that sheds under admission control is healthy — the breaker must
// not accumulate sheds and eject it, or an overloaded tier would lose its
// remaining capacity to its own self-protection.
func TestBreakerIgnoresOverloadShed(t *testing.T) {
	stats := &Stats{}
	var mode atomic.Int32 // 0 = shed, 1 = hard failure
	inv := Build(func(ctx context.Context, call *Call) error {
		if mode.Load() == 0 {
			return Errorf(CodeOverloaded, "no deadline budget")
		}
		return Errorf(CodeUnavailable, "down")
	}, Breaker(BreakerConfig{Failures: 3, Stats: stats}))

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := inv(ctx, NewCall("svc", "M", nil)); !IsCode(err, CodeOverloaded) {
			t.Fatalf("call %d: err = %v, want the shed to pass through", i, err)
		}
	}
	if got := stats.BreakerOpened.Value(); got != 0 {
		t.Fatalf("BreakerOpened = %d after 20 sheds, want 0", got)
	}

	// Real unavailability still trips it.
	mode.Store(1)
	for i := 0; i < 3; i++ {
		inv(ctx, NewCall("svc", "M", nil)) //nolint:errcheck
	}
	if err := inv(ctx, NewCall("svc", "M", nil)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want breaker open after real failures", err)
	}
}

// The overload code is retryable at another replica but never a failure
// signal, and it survives a wrap.
func TestOverloadClassification(t *testing.T) {
	err := Errorf(CodeOverloaded, "shed")
	if !Retryable(err) {
		t.Fatal("CodeOverloaded must be retryable (a peer may have capacity)")
	}
	if FailureSignal(err) {
		t.Fatal("CodeOverloaded must not be a failure signal (the replica is healthy)")
	}
	wrapped := fmt.Errorf("hop: %w", err)
	if !IsCode(wrapped, CodeOverloaded) || !Retryable(wrapped) || FailureSignal(wrapped) {
		t.Fatalf("wrapped shed misclassified: %v", wrapped)
	}
}
