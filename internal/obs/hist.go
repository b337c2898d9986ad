package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits is log2 of the linear sub-buckets per power of two. Values
// below 2·2^subBits (32) get a bucket each; above that, the octave
// [2^k, 2^(k+1)) is cut into 16 equal buckets of width 2^(k−4), so a
// bucket's upper bound overestimates any value in it by less than
// 1/16 of the value.
const subBits = 4

// histBuckets is the bucket count, 976: 32 exact buckets for 0..31,
// then 16 for each of the 59 octaves from [32, 64) to [2^63, 2^64).
const histBuckets = (65 - subBits) << subBits

// bucketOf maps a value to its bucket: s = max(bitlen(v) − 5, 0) is how
// far the value is shifted to keep its top five bits, and those bits
// (16..31 once s > 0) pick the sub-bucket within octave s.
func bucketOf(v uint64) int {
	s := bits.Len64(v >> (subBits + 1))
	return s<<subBits + int(v>>s)
}

// bucketUpper is the largest value bucket i can hold: i itself below
// 32, otherwise (m+1)·2^s − 1 for i = 16·s + m with 16 ≤ m < 32. The
// top bucket's bound wraps to MaxUint64.
func bucketUpper(i int) uint64 {
	if i < 2<<subBits {
		return uint64(i)
	}
	s := uint(i>>subBits - 1)
	m := uint64(i&(1<<subBits-1) + 1<<subBits)
	return (m+1)<<s - 1
}

// Hist is a lock-free latency histogram with 16 linear sub-buckets per
// power of two. Observe is three atomic adds plus a bounded max-CAS —
// no locks, no allocation — so it is safe inside //growt:hotpath code.
// Buckets deliberately share cache lines (a padded layout would cost
// 125 KiB per histogram and the write rate per histogram is far below
// per-counter rates); the count, sum and max words, hit on every
// Observe, follow the array rather than sharing a line with its
// busiest low buckets.
type Hist struct {
	//growt:atomic
	b [histBuckets]atomic.Uint64

	n   atomic.Uint64
	sum atomic.Uint64
	max atomic.Uint64
}

// Observe records v (typically nanoseconds; the metric name carries
// the unit).
//
//growt:hotpath
func (h *Hist) Observe(v uint64) {
	h.b[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the time elapsed since start, in nanoseconds.
//
//growt:hotpath
func (h *Hist) ObserveSince(start time.Time) {
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot captures the histogram, its buckets cut after the one that
// holds Max, so a snapshot grows with the range actually observed.
// Max is read first: an Observe bumps its bucket before it raises the
// max, so every value up to that Max is in the captured buckets.
// Concurrent Observes may still land between the field reads
// (count/sum/buckets can disagree by the few in-flight observations);
// the snapshot is self-consistent once writers quiesce, and windowed
// deltas via Sub inherit the same tolerance.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Max: h.max.Load()}
	s.Buckets = make([]uint64, bucketOf(s.Max)+1)
	for i := range s.Buckets {
		s.Buckets[i] = h.b[i].Load()
	}
	s.Count = h.n.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist: a plain value that
// marshals to JSON, merges across shards or servers, and subtracts to
// form windows. Buckets may be shorter than histBuckets (missing
// buckets are empty), and the zero value is an empty histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets"`
}

// Merge returns the combination of s and o, as if every observation
// recorded in either had been recorded in one histogram.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	out.Count += o.Count
	out.Sum += o.Sum
	out.Max = max(s.Max, o.Max)
	out.Buckets = make([]uint64, max(len(s.Buckets), len(o.Buckets)))
	copy(out.Buckets, s.Buckets)
	for i, c := range o.Buckets {
		out.Buckets[i] += c
	}
	return out
}

// Sub returns the observations in s but not in prev — the activity
// window between two snapshots of the same histogram. Subtraction
// saturates at zero so a server restart between scrapes yields an
// empty window rather than wrapped garbage. Max carries s's value: a
// maximum cannot be un-observed.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := s
	out.Count = satSub(s.Count, prev.Count)
	out.Sum = satSub(s.Sum, prev.Sum)
	out.Buckets = make([]uint64, len(s.Buckets))
	for i, c := range s.Buckets {
		if i < len(prev.Buckets) {
			c = satSub(c, prev.Buckets[i])
		}
		out.Buckets[i] = c
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of
// the recorded values: the upper bound of the bucket containing the
// ceil(q·n)-th smallest observation, clamped to the exact tracked Max
// (every observation is ≤ Max, so the clamp only tightens the top
// bucket's bound — a p99 can never read above the max). For the exact
// order statistic x the result e satisfies x ≤ e < x + x/16 (e = x
// below 32). Returns 0 for an empty snapshot; q ≥ 1 returns the bound
// of the highest occupied bucket.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return s.clampMax(bucketUpper(i))
		}
	}
	return s.clampMax(math.MaxUint64)
}

// clampMax tightens a bucket upper bound with the exact maximum (in a
// Sub window Max is the cumulative maximum, still a valid upper bound
// for every windowed observation). Max of zero means every recorded
// value was zero, in which case the bound is already zero.
func (s HistSnapshot) clampMax(v uint64) uint64 {
	if s.Max > 0 && s.Max < v {
		return s.Max
	}
	return v
}

// Mean returns the average recorded value (0 when empty).
func (s HistSnapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}
