package metrics

import (
	"sync"
	"testing"
	"time"

	"dsb/internal/vtime"
)

func TestCounter(t *testing.T) {
	var c Counter
	for range 5 {
		c.Inc()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("Value = %d, want 16000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestMeterRate(t *testing.T) {
	vtime.Run(t, func() {
		m := NewMeter(time.Second, 10)
		for i := 0; i < 100; i++ {
			m.Mark(1)
		}
		got := m.Rate()
		if got < 99 || got > 101 {
			t.Fatalf("Rate = %f, want ~100", got)
		}
		// Advance past the window: rate decays to zero.
		vtime.Advance(2 * time.Second)
		if got := m.Rate(); got != 0 {
			t.Fatalf("Rate after window = %f, want 0", got)
		}
	})
}

func TestMeterRotation(t *testing.T) {
	vtime.Run(t, func() {
		m := NewMeter(time.Second, 10)
		m.Mark(10)
		vtime.Advance(500 * time.Millisecond)
		m.Mark(10)
		// Both marks inside the 1s window.
		if got := m.Rate(); got < 19 || got > 21 {
			t.Fatalf("Rate = %f, want ~20", got)
		}
		// Slide so only the second mark remains.
		vtime.Advance(700 * time.Millisecond)
		got := m.Rate()
		if got < 9 || got > 11 {
			t.Fatalf("Rate after slide = %f, want ~10", got)
		}
	})
}

func TestSeries(t *testing.T) {
	s := NewSeries("lat")
	if s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Add(0, 1)
	s.Add(time.Second, 3)
	s.Add(2*time.Second, 2)
	if got := s.At(2 * time.Second); got != 2 {
		t.Errorf("At(2s) = %f, want 2", got)
	}
	if got := s.Max(); got != 3 {
		t.Errorf("Max = %f", got)
	}
	if got := s.Mean(); got != 2 {
		t.Errorf("Mean = %f", got)
	}
	if got := s.At(1500 * time.Millisecond); got != 3 {
		t.Errorf("At(1.5s) = %f, want 3", got)
	}
	if got := s.At(-time.Second); got != 0 {
		t.Errorf("At(-1s) = %f, want 0", got)
	}
	if sl := s.Sparkline(10); len([]rune(sl)) != 10 {
		t.Errorf("Sparkline width = %d", len([]rune(sl)))
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
