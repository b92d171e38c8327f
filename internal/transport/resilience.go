package transport

// ResilienceConfig bundles the tail-tolerance middleware stack. A nil
// sub-config disables that middleware; NewResilience returns the
// all-defaults bundle. Stats and Annotate, when set, are pushed down into
// every sub-config that has not set its own.
//
// The stack splits across two levels of the call path:
//
//   - Stack() — per-target middlewares, outermost first: deadline budget
//     (shrink the hop's budget), retry (re-issue retryable failures), hedge
//     (race a second attempt after the hedge delay). On a load-balanced
//     client they wrap the round-robin pick, so each attempt can land on a
//     different replica; on a shard router they wrap each replica's call.
//   - BackendFactory() — per-replica middlewares, installed under the
//     stack on each replica of the target's shard.Router: the circuit
//     breaker, one instance per replica, so a slow or dead instance is
//     ejected individually and its rejections (CodeUnavailable) fail over
//     to healthy peers.
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
// state (the retry budget), so call it once per target.
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

// BackendMiddleware returns the per-replica middleware chain (the circuit
// breaker) of a target with one replica.
func (cfg *ResilienceConfig) BackendMiddleware() []Middleware {
	return cfg.BackendFactory()("")
}

// BackendFactory returns the per-replica middleware factory for one target,
// the shape shard.WithReplicaMiddleware takes. Each replica gets its own
// breaker, but all breakers of the target share one ejection ledger when
// Breaker.MaxEjected is set, so at most that many replicas can be held open
// at once. Call it once per target so the ledger is not shared across
// targets.
func (cfg *ResilienceConfig) BackendFactory() func(addr string) []Middleware {
	if cfg == nil || cfg.Breaker == nil {
		return func(string) []Middleware { return nil }
	}
	b := *cfg.Breaker
	cfg.fill(&b.Stats, &b.Annotate)
	if b.MaxEjected > 0 {
		b.ledger = &ejectionLedger{cap: b.MaxEjected}
	}
	return func(string) []Middleware { return []Middleware{Breaker(b)} }
}

func (cfg *ResilienceConfig) fill(stats **Stats, annotate *AnnotateFunc) {
	if *stats == nil {
		*stats = cfg.Stats
	}
	if *annotate == nil {
		*annotate = cfg.Annotate
	}
}
