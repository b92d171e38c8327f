package metrics

import (
	"testing"
	"time"

	"dsb/internal/vtime"
)

func TestWindowedAgesOutOldSamples(t *testing.T) {
	vtime.Run(t, func() {
		w := NewWindowed(time.Second, 4)

		for i := 0; i < 100; i++ {
			w.Record(int64(50 * time.Millisecond))
		}
		s := w.Snapshot()
		if s.Count != 100 || time.Duration(s.P99) != 50*time.Millisecond {
			t.Fatalf("initial snapshot = %+v", s)
		}

		// Half a window later the spike is still visible...
		vtime.Advance(500 * time.Millisecond)
		w.Record(int64(time.Millisecond))
		if s := w.Snapshot(); s.Count != 101 {
			t.Fatalf("mid-window count = %d, want 101", s.Count)
		}

		// ...but a full window after the spike only the recent sample remains.
		vtime.Advance(600 * time.Millisecond)
		s = w.Snapshot()
		if s.Count != 1 {
			t.Fatalf("post-window count = %d, want 1 (spike aged out)", s.Count)
		}
		if got := time.Duration(s.P99); got > 2*time.Millisecond {
			t.Fatalf("p99 after rotation = %v, still polluted by the old spike", got)
		}
	})
}

func TestWindowedFullRotationResets(t *testing.T) {
	vtime.Run(t, func() {
		w := NewWindowed(time.Second, 4)
		w.Record(10)
		vtime.Advance(10 * time.Second) // far beyond the window
		if s := w.Snapshot(); s.Count != 0 {
			t.Fatalf("count after full rotation = %d, want 0", s.Count)
		}
		w.Record(7)
		if s := w.Snapshot(); s.Count != 1 || s.Max != 7 {
			t.Fatalf("snapshot after reuse = %+v", s)
		}
	})
}
