package fault

import (
	"fmt"
	"time"
)

// Latency injects fixed delay plus jitter on from→to calls.
func Latency(from, to string, d, jitter time.Duration) Fault {
	return Fault{
		Name: fmt.Sprintf("latency(%s→%s,%v+%v)", orAny(from), orAny(to), d, jitter),
		rule: &Rule{From: from, To: to, Latency: d, Jitter: jitter},
	}
}

// Blackhole swallows from→to calls until their deadline.
func Blackhole(from, to string) Fault {
	return Fault{
		Name: fmt.Sprintf("blackhole(%s→%s)", orAny(from), orAny(to)),
		rule: &Rule{From: from, To: to, Blackhole: true},
	}
}

// Reset kills new from→to connections at dial time.
func Reset(from, to string) Fault {
	return Fault{
		Name: fmt.Sprintf("reset(%s→%s)", orAny(from), orAny(to)),
		rule: &Rule{From: from, To: to, Reset: true},
	}
}

// Stall delays every byte on from→to connections.
func Stall(from, to string, d time.Duration) Fault {
	return Fault{
		Name: fmt.Sprintf("stall(%s→%s,%v)", orAny(from), orAny(to), d),
		rule: &Rule{From: from, To: to, Stall: d},
	}
}

// Active returns the number of armed rules.
func (inj *Injector) Active() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.rules)
}
