package fault

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Fault is one schedulable failure: either a standing Rule (armed when the
// step fires, disarmed by the During end step) or an Action (an arbitrary
// state change — crash an instance, deregister an address — run once).
type Fault struct {
	Name string
	rule *Rule
	do   func()
}

// Partition drops from→to traffic at the connection level (one direction;
// partition both ways with two faults).
func Partition(from, to string) Fault {
	return Fault{
		Name: fmt.Sprintf("partition(%s→%s)", orAny(from), orAny(to)),
		rule: &Rule{From: from, To: to, Partition: true},
	}
}

// Action wraps an arbitrary state change — crashing or restarting a
// core.Instance, deregistering an address — as a schedulable fault.
func Action(name string, do func()) Fault {
	return Fault{Name: name, do: do}
}

func orAny(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

// ScheduledFault is one resolved step of a scenario timeline.
type ScheduledFault struct {
	At    time.Duration
	End   time.Duration // zero for open-ended or action faults
	Fault Fault
}

// Scenario is a deterministic fault schedule. Steps are declared relative
// to the start of Play; Between draws its firing time from the injector's
// seeded RNG at declaration time, so two scenarios built in the same order
// over injectors with the same seed have identical timelines (compare
// String outputs to assert reproducibility).
type Scenario struct {
	inj   *Injector
	steps []ScheduledFault
}

// NewScenario creates an empty scenario bound to an injector.
func NewScenario(inj *Injector) *Scenario {
	return &Scenario{inj: inj}
}

// At schedules f at offset t. Rule faults armed by At stay armed for the
// rest of the run.
func (s *Scenario) At(t time.Duration, f Fault) *Scenario {
	s.steps = append(s.steps, ScheduledFault{At: t, Fault: f})
	return s
}

// During arms a rule fault at from and disarms it at until. Action faults
// have nothing to revert; they just run at from.
func (s *Scenario) During(from, until time.Duration, f Fault) *Scenario {
	s.steps = append(s.steps, ScheduledFault{At: from, End: until, Fault: f})
	return s
}

// Between schedules f at a seeded-random offset in [lo, hi), drawn now.
func (s *Scenario) Between(lo, hi time.Duration, f Fault) *Scenario {
	at := lo
	if hi > lo {
		at += s.inj.jitter(hi - lo)
	}
	return s.At(at, f)
}

// Timeline returns the resolved schedule sorted by firing time (stable, so
// same-instant steps keep declaration order).
func (s *Scenario) Timeline() []ScheduledFault {
	out := make([]ScheduledFault, len(s.steps))
	copy(out, s.steps)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the timeline, one step per line — the reproducibility
// witness tests compare across same-seed runs.
func (s *Scenario) String() string {
	var b strings.Builder
	for _, st := range s.Timeline() {
		if st.End > 0 {
			fmt.Fprintf(&b, "%v..%v %s\n", st.At, st.End, st.Fault.Name)
		} else {
			fmt.Fprintf(&b, "%v %s\n", st.At, st.Fault.Name)
		}
	}
	return b.String()
}

// Play runs the schedule against the scenario's injector, firing each step
// at its offset from now. It returns immediately; the returned channel
// closes when the schedule is exhausted or ctx is canceled. On
// cancellation, rules this play armed are disarmed on the way out (a
// During end that already fired makes its remover a no-op).
func (s *Scenario) Play(ctx context.Context) <-chan struct{} {
	type timed struct {
		at   time.Duration
		fire func(armed *[]func())
	}
	var events []timed
	for _, st := range s.Timeline() {
		st := st
		switch {
		case st.Fault.rule != nil:
			// Arm/disarm pair sharing the remover; both closures run only on
			// the single play goroutine, in at-order.
			var remove func()
			events = append(events, timed{at: st.At, fire: func(armed *[]func()) {
				remove = s.inj.Add(*st.Fault.rule)
				*armed = append(*armed, func() { remove() })
			}})
			if st.End > st.At {
				events = append(events, timed{at: st.End, fire: func(*[]func()) {
					if remove != nil {
						remove()
					}
				}})
			}
		case st.Fault.do != nil:
			events = append(events, timed{at: st.At, fire: func(*[]func()) { st.Fault.do() }})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		var armed []func()
		for _, ev := range events {
			if d := time.Until(start.Add(ev.at)); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
			if ctx.Err() != nil {
				for _, disarm := range armed {
					disarm()
				}
				return
			}
			ev.fire(&armed)
		}
	}()
	return done
}
