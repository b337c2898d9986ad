package main

import (
	"math"
	"slices"
)

// recorder keeps every latency sample of one goroutine, filed under
// the time slice it completed in, so percentiles are exact (sorted
// samples, nearest rank) and per-slice. One goroutine writes a
// recorder; the samples are read after it has stopped.
type recorder struct {
	slices [][]uint32 // nanoseconds, saturating at ~4.29 s
}

// newRecorder pre-allocates and pre-touches room for perSlice samples
// in each of n slices, so the measured window takes no page faults for
// its own bookkeeping.
func newRecorder(n, perSlice int) *recorder {
	r := &recorder{slices: make([][]uint32, n)}
	for i := range r.slices {
		s := make([]uint32, perSlice)
		for j := 0; j < len(s); j += 1024 {
			s[j] = 1
		}
		r.slices[i] = s[:0]
	}
	return r
}

// add files one sample; slices outside the window are dropped.
func (r *recorder) add(slice int, ns int64) {
	if slice < 0 || slice >= len(r.slices) {
		return
	}
	r.slices[slice] = append(r.slices[slice], satNanos(ns))
}

func satNanos(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// mergeSlices concatenates slice i of every recorder and sorts it.
func mergeSlices(recs []*recorder) [][]uint32 {
	if len(recs) == 0 {
		return nil
	}
	out := make([][]uint32, len(recs[0].slices))
	for i := range out {
		for _, r := range recs {
			out[i] = append(out[i], r.slices[i]...)
		}
		slices.Sort(out[i])
	}
	return out
}

// percentile is the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q·n samples at or below it.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return float64(sorted[rank])
}

// slicePercentile is the median over slices of each slice's own
// q-quantile, skipping empty slices: one stalled slice moves one value,
// not the result.
func slicePercentile(sl [][]uint32, q float64) float64 {
	var vals []float64
	for _, s := range sl {
		if len(s) > 0 {
			vals = append(vals, percentile(s, q))
		}
	}
	return median(vals)
}

// flatten merges sorted slices into one sorted sample set.
func flatten(sl [][]uint32) []uint32 {
	var all []uint32
	for _, s := range sl {
		all = append(all, s...)
	}
	slices.Sort(all)
	return all
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// run-to-run spread is written in.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func maxU32(s []uint32) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(slices.Max(s))
}
