// Package fault is a deterministic, seedable fault-injection layer for the
// live stack, in the spirit of Gremlin (Heorhiadi et al., ICDCS'16) and the
// lineage-driven fault injection of Molly: failures are injected at the
// transport boundary, scripted by a scenario schedule, and reproducible —
// the same seed and the same scenario construction order yield the same
// fault timeline, so chaos runs can carry directional assertions in tests.
//
// Faults act at two levels. Client-side, an Injector provides a
// transport.Middleware that adds latency, jitter, injected error codes, and
// blackholes to matching calls. Network-side, an Injector wraps an
// rpc.Network so connections between named services can be reset at dial
// time, stalled byte-by-byte, or asymmetrically partitioned (A→B drops
// while B→A flows). Whole-instance crash/restart composes from scenario
// Action steps driving core.Instance handles — the fault layer itself never
// imports core.
package fault

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"dsb/internal/transport"
)

// Rule describes one standing fault between a caller and callee service.
// Empty From/To are wildcards; matching against an unknown side (the server
// end of an accepted connection does not know its peer's name) only
// succeeds for wildcard fields.
type Rule struct {
	// From and To name the caller and callee services ("" = any).
	From, To string

	// Addr narrows call-level faults (Latency, ErrCode, Blackhole) to calls
	// pinned to one replica address — how a single shard replica of a
	// sharded tier is made slow while its siblings stay healthy. The shard
	// router stamps transport.Call.Addr before the fault layer runs, so
	// every store, cache and broker call carries it; a load-balanced
	// logic-tier call picks its replica under the fault layer and reaches it
	// with Addr empty, so Addr rules never match one. Connection-level
	// faults (Partition, Reset, Stall) ignore Addr. Empty matches any call.
	Addr string

	// Latency delays matching calls; Jitter adds a uniformly distributed
	// extra in [0, Jitter), drawn from the injector's seeded RNG.
	Latency, Jitter time.Duration

	// ErrCode, when nonzero, fails matching calls with this transport code
	// at probability ErrRate (ErrRate 0 means always).
	ErrCode int
	ErrRate float64

	// Blackhole swallows matching calls at the middleware: the call blocks
	// until its context deadline and fails with CodeDeadline, the signature
	// of a peer that silently stopped answering.
	Blackhole bool

	// Partition drops matching traffic at the connection level: writes in
	// the From→To direction pretend success and discard their bytes (the
	// dropped-packet model), reads of From→To traffic on the receiving side
	// stall while the rule is active. One rule is one direction; partition
	// both ways with two rules.
	Partition bool

	// Reset kills new From→To connections at dial time: the dial succeeds
	// and the connection is immediately closed, so first use fails with an
	// EOF/closed-pipe error — a crashed peer whose listener backlog still
	// accepted the handshake.
	Reset bool

	// Stall delays every Read/Write on matching connections — a saturated
	// or lossy link rather than a dead one.
	Stall time.Duration
}

func (r *Rule) matches(from, to string) bool {
	return (r.From == "" || r.From == from) && (r.To == "" || r.To == to)
}

// Injector is the switchboard of active fault rules, shared by the
// middleware and network wrappers. All rule draws (jitter, error
// probability) come from one seeded RNG, so a fixed seed plus a
// deterministic call sequence reproduces the same faults.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[*Rule]struct{}
}

// NewInjector creates an injector whose random draws derive from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewPCG(uint64(seed), uint64(seed)^0x9e3779b97f4a7c15)),
		rules: make(map[*Rule]struct{}),
	}
}

// Add arms a rule and returns its remover. Removing twice is a no-op.
func (inj *Injector) Add(r Rule) func() {
	rp := &r
	inj.mu.Lock()
	inj.rules[rp] = struct{}{}
	inj.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			inj.mu.Lock()
			delete(inj.rules, rp)
			inj.mu.Unlock()
		})
	}
}

// snapshot copies the rules matching (from, to) under the lock.
func (inj *Injector) snapshot(from, to string) []Rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var out []Rule
	for r := range inj.rules {
		if r.matches(from, to) {
			out = append(out, *r)
		}
	}
	return out
}

// jitter draws a uniform duration in [0, d) from the seeded RNG.
func (inj *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return time.Duration(inj.rng.Int64N(int64(d)))
}

// hit draws an event with probability p (p <= 0 means certain).
func (inj *Injector) hit(p float64) bool {
	if p <= 0 {
		return true
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.rng.Float64() < p
}

// partitioned reports whether a partition rule covers the direction.
func (inj *Injector) partitioned(from, to string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for r := range inj.rules {
		if r.Partition && r.matches(from, to) {
			return true
		}
	}
	return false
}

// resetActive reports whether new from→to connections should be reset.
func (inj *Injector) resetActive(from, to string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for r := range inj.rules {
		if r.Reset && r.matches(from, to) {
			return true
		}
	}
	return false
}

// stallFor sums the byte-level stalls covering the direction.
func (inj *Injector) stallFor(from, to string) time.Duration {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var d time.Duration
	for r := range inj.rules {
		if r.Stall > 0 && r.matches(from, to) {
			d += r.Stall
		}
	}
	return d
}

// Middleware returns the client-side fault middleware for calls issued by
// the named service. It applies, per matching rule: blackhole/partition
// (block until the context deadline), injected latency plus jitter, then
// probabilistic coded errors. core.App installs it automatically for every
// wired client when the app's network is a fault.Network.
func (inj *Injector) Middleware(from string) transport.Middleware {
	return func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			for _, r := range inj.snapshot(from, call.Target) {
				if r.Addr != "" && r.Addr != call.Addr {
					continue
				}
				if r.Blackhole || r.Partition {
					// A silent peer: nothing comes back, ever. Burn the
					// caller's deadline the way a real blackhole would.
					<-ctx.Done()
					return transport.WrapCode(transport.CodeDeadline, ctx.Err(),
						"fault: blackhole %s→%s: %v", from, call.Target, ctx.Err())
				}
				if d := r.Latency + inj.jitter(r.Jitter); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return transport.WrapCode(transport.CodeDeadline, ctx.Err(),
							"fault: injected latency %s→%s: %v", from, call.Target, ctx.Err())
					}
				}
				if r.ErrCode != 0 && inj.hit(r.ErrRate) {
					return transport.Errorf(r.ErrCode, "fault: injected error %s→%s", from, call.Target)
				}
			}
			return next(ctx, call)
		}
	}
}
