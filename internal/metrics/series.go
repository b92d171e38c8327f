package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Point is one (time, value) observation in a Series.
type Point struct {
	T time.Duration // offset from the start of the experiment
	V float64
}

// Series is an append-only timeline of observations, used by experiment
// drivers to record e.g. tail latency or utilization over simulated time.
// Series is not safe for concurrent use; experiment drivers are
// single-threaded over virtual time.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Max returns the largest value, or 0 if empty.
func (s *Series) Max() float64 {
	var max float64
	for i, p := range s.Points {
		if i == 0 || p.V > max {
			max = p.V
		}
	}
	return max
}

// Mean returns the mean value, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// At returns the value of the last point at or before t, or 0 if none.
func (s *Series) At(t time.Duration) float64 {
	var v float64
	for _, p := range s.Points {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// Sparkline renders the series as a fixed-width unicode sparkline, which the
// experiment tables use to show timeline shape in terminal output.
func (s *Series) Sparkline(width int) string {
	if len(s.Points) == 0 || width <= 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	min, max := s.Points[0].V, s.Points[0].V
	for _, p := range s.Points {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	span := max - min
	var b strings.Builder
	for i := 0; i < width; i++ {
		idx := i * len(s.Points) / width
		v := s.Points[idx].V
		var level int
		if span > 0 {
			level = int((v - min) / span * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[level])
	}
	return b.String()
}

// String summarizes the series.
func (s *Series) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.2f max=%.2f", s.Name, len(s.Points), s.Mean(), s.Max())
}
