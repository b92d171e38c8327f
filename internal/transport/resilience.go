package transport

// ResilienceConfig bundles the tail-tolerance middleware stack. A nil
// sub-config disables that middleware; NewResilience returns the
// all-defaults bundle. Stats and Annotate, when set, are pushed down into
// every sub-config that has not set its own.
//
// The stack splits across two levels of the call path:
//
//   - Stack() — per-target middlewares installed on the load-balanced
//     client, outermost first: deadline budget (shrink the hop's budget),
//     retry (re-issue retryable failures, re-picking a replica), hedge
//     (race a second replica after the hedge delay).
//   - BackendMiddleware() — per-replica middlewares installed on each
//     backend's client: the circuit breaker, one instance per replica, so
//     a slow or dead instance is ejected individually and its rejections
//     (CodeUnavailable) fail over to healthy peers.
type ResilienceConfig struct {
	Budget  *BudgetConfig
	Retry   *RetryConfig
	Hedge   *HedgeConfig
	Breaker *BreakerConfig

	// Stats receives counters from every middleware in the bundle that does
	// not carry its own.
	Stats *Stats
	// Annotate receives span annotations from every middleware in the
	// bundle that does not carry its own (usually trace.Annotate).
	Annotate AnnotateFunc
}

// NewResilience returns the full default bundle: deadline budgets, retries,
// hedging, and per-replica breakers, all at their default tunings.
func NewResilience() *ResilienceConfig {
	return &ResilienceConfig{
		Budget:  &BudgetConfig{},
		Retry:   &RetryConfig{},
		Hedge:   &HedgeConfig{},
		Breaker: &BreakerConfig{},
		Stats:   &Stats{},
	}
}

// Stack returns a fresh per-target middleware chain, outermost first:
// deadline budget → retry → hedge. Every invocation creates new middleware
// state (retry budget, hedge latency tracker), so call it once per target.
func (cfg *ResilienceConfig) Stack() []Middleware {
	if cfg == nil {
		return nil
	}
	var mws []Middleware
	if cfg.Budget != nil {
		b := *cfg.Budget
		cfg.fill(&b.Stats, &b.Annotate)
		mws = append(mws, DeadlineBudget(b))
	}
	if cfg.Retry != nil {
		r := *cfg.Retry
		cfg.fill(&r.Stats, &r.Annotate)
		mws = append(mws, Retry(r))
	}
	if cfg.Hedge != nil {
		h := *cfg.Hedge
		cfg.fill(&h.Stats, &h.Annotate)
		mws = append(mws, Hedge(h))
	}
	return mws
}

// BackendMiddleware returns a fresh per-replica middleware chain (the
// circuit breaker); call it once per backend address so replicas trip
// independently.
func (cfg *ResilienceConfig) BackendMiddleware() []Middleware {
	if cfg == nil || cfg.Breaker == nil {
		return nil
	}
	b := *cfg.Breaker
	cfg.fill(&b.Stats, &b.Annotate)
	return []Middleware{Breaker(b)}
}

// InstrumentedBackendFactory returns a per-replica middleware factory for
// one target, matching lb.WithBackendInstrument and
// shard.WithReplicaInstrument. Each replica gets its own breaker and a state
// probe the balancer surfaces in its per-backend stats, but all breakers of
// the target share one ejection ledger when Breaker.MaxEjected is set, so at
// most that many replicas can be held open at once. Call it once per target
// so the ledger is not shared across targets.
func (cfg *ResilienceConfig) InstrumentedBackendFactory() func(addr string) ([]Middleware, func() string) {
	if cfg == nil || cfg.Breaker == nil {
		return func(string) ([]Middleware, func() string) { return nil, nil }
	}
	b := *cfg.Breaker
	cfg.fill(&b.Stats, &b.Annotate)
	if b.MaxEjected > 0 {
		b.ledger = &ejectionLedger{cap: b.MaxEjected}
	}
	return func(string) ([]Middleware, func() string) {
		mw, probe := BreakerWithProbe(b)
		return []Middleware{mw}, probe
	}
}

func (cfg *ResilienceConfig) fill(stats **Stats, annotate *AnnotateFunc) {
	if *stats == nil {
		*stats = cfg.Stats
	}
	if *annotate == nil {
		*annotate = cfg.Annotate
	}
}
