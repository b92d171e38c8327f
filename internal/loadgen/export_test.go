package loadgen

import "time"

// Spike is flat at 1.0 with a multiplicative burst in [Start, Start+Width).
type Spike struct {
	Start, Width time.Duration
	Factor       float64
}

// Eval implements Pattern.
func (s Spike) Eval(elapsed time.Duration) float64 {
	if elapsed >= s.Start && elapsed < s.Start+s.Width {
		return s.Factor
	}
	return 1
}
