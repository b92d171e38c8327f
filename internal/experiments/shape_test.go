package experiments

import "testing"

// retryShape runs a wall-clock shape check: run plays the experiment once
// and returns the directional claims that did not hold, or an error if an
// arm could not run at all. The claims are queueing measurements on a shared
// machine, so the shape gets three attempts and passes on the first clean
// one; a real regression fails all three.
//
// Under the race detector the experiment runs once, for the detector's
// sake: its slowdown breaks the numeric shape, so violations are logged and
// not asserted, while an arm error — like a race or a panic — still fails.
func retryShape(t *testing.T, run func(attempt int) ([]string, error)) {
	t.Helper()
	const attempts = 3
	var last []string
	for i := 1; i <= attempts; i++ {
		v, err := run(i)
		if raceEnabled {
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("race detector on: ran once, shape not asserted (violations: %v)", v)
			return
		}
		if err != nil {
			v = []string{err.Error()}
		}
		if len(v) == 0 {
			return
		}
		last = v
		t.Logf("attempt %d/%d violated the shape: %v", i, attempts, last)
	}
	for _, violation := range last {
		t.Error(violation)
	}
}
