package metrics

import "time"

// ring is the sliding window Meter and Windowed keep their slots in: n slots
// of slotDur each, slots[head] the oldest, covering absolute slot number
// base (time since the epoch in slotDur units), and the rest the slots after
// it in turn, wrapping. As time moves on the slots that fall out of the
// window are recycled for the new periods through reset, which newRing also
// applies to every slot before first use. Callers hold their own lock.
type ring[S any] struct {
	slotDur time.Duration
	slots   []S
	head    int
	base    int64
	reset   func(*S)
}

func newRing[S any](window time.Duration, n int, reset func(*S)) ring[S] {
	r := ring[S]{slotDur: window / time.Duration(n), slots: make([]S, n), reset: reset}
	for i := range r.slots {
		reset(&r.slots[i])
	}
	return r
}

// now rotates the window to end at the current time and returns the slot
// the current time falls in; a time before the window (the wall clock
// stepped back) is attributed to the oldest slot.
func (r *ring[S]) now() *S {
	abs := time.Now().UnixNano() / int64(r.slotDur)
	n := int64(len(r.slots))
	if shift := abs - n + 1 - r.base; shift > 0 {
		for i := int64(0); i < min(shift, n); i++ {
			r.reset(&r.slots[r.head])
			r.head = (r.head + 1) % len(r.slots)
		}
		r.base += shift
	}
	return &r.slots[(r.head+int(max(abs-r.base, 0)))%len(r.slots)]
}
