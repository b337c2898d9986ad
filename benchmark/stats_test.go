package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestRecorderSlicesAndMedian(t *testing.T) {
	a, b := newRecorder(3, 4), newRecorder(3, 4)
	a.add(0, 10)
	b.add(0, 30)
	a.add(1, 500)
	a.add(2, 20)
	b.add(2, 40)
	a.add(3, 1)  // past the window: dropped
	a.add(-1, 1) // before it: dropped
	a.add(0, math.MaxInt64)
	sl := mergeSlices([]*recorder{a, b})
	if len(sl[0]) != 3 || len(sl[1]) != 1 || len(sl[2]) != 2 {
		t.Fatalf("slice sizes %d %d %d, want 3 1 2", len(sl[0]), len(sl[1]), len(sl[2]))
	}
	if sl[0][2] != math.MaxUint32 {
		t.Errorf("oversized sample stored as %d, want saturation", sl[0][2])
	}
	// Per-slice medians are 30, 500, 20: the stalled middle slice is one
	// value among three, not a third of all samples.
	if got := slicePercentile(sl, 0.5); got != 30 {
		t.Errorf("slicePercentile = %g, want 30", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}

// The spread rule is written in terms of Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 40, 20, 50, 30}, 15, 30, 45},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
