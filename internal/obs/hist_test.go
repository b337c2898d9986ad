package obs

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 31, 32, 33, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Errorf("Count = %d, want 8", s.Count)
	}
	if s.Sum != 1102 {
		t.Errorf("Sum = %d, want 1102", s.Sum)
	}
	if s.Max != 1000 {
		t.Errorf("Max = %d, want 1000", s.Max)
	}
	// Values below 32 have a bucket each; 32 and 33 share the first
	// two-wide bucket of the octave [32, 64).
	for _, c := range []struct {
		bucket int
		want   uint64
	}{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 0}, {31, 1}, {32, 2}, {33, 0}} {
		if got := s.Buckets[c.bucket]; got != c.want {
			t.Errorf("bucket %d = %d, want %d", c.bucket, got, c.want)
		}
	}
	// The snapshot ends at the bucket holding Max.
	if len(s.Buckets) != bucketOf(1000)+1 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Errorf("len(Buckets) = %d (last %d), want %d ending in Max's bucket",
			len(s.Buckets), s.Buckets[len(s.Buckets)-1], bucketOf(1000)+1)
	}
	if got := s.Mean(); got != 1102/8 {
		t.Errorf("Mean = %d, want %d", got, 1102/8)
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// TestQuantileErrorBound checks the histogram's contract against a
// reference sort: for every q, the reported quantile is an upper bound
// on the exact order statistic and overestimates it by less than 1/16
// (plus one for the integer division).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() uint64{
		"uniform": func() uint64 { return uint64(rng.Intn(1_000_000)) + 1 },
		"exp":     func() uint64 { return uint64(rng.ExpFloat64()*50_000) + 1 },
		"bimodal": func() uint64 {
			if rng.Intn(100) < 95 {
				return uint64(rng.Intn(2_000)) + 1
			}
			return uint64(rng.Intn(5_000_000)) + 1_000_000
		},
		// Log-uniform over 1 µs..1 s, in nanoseconds: the span a served
		// request's latency ranges over.
		"loguniform": func() uint64 { return uint64(1e3 * math.Pow(10, rng.Float64()*6)) },
	}
	for name, draw := range dists {
		var h Hist
		vals := make([]uint64, 20_000)
		for i := range vals {
			vals[i] = draw()
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
			rank := int(math.Ceil(q * float64(len(vals))))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			got := s.Quantile(q)
			if got < exact {
				t.Errorf("%s q=%v: estimate %d below exact %d", name, q, got, exact)
			}
			if got >= exact+exact/16+1 {
				t.Errorf("%s q=%v: estimate %d not within 1/16 of exact %d", name, q, got, exact)
			}
		}
		if s.Max != vals[len(vals)-1] {
			t.Errorf("%s: Max = %d, want %d", name, s.Max, vals[len(vals)-1])
		}
	}
}

// TestHistConcurrentMerge has G writers hammer private histograms plus
// one shared histogram concurrently (snapshots racing with writers),
// then checks the merged private snapshots and the quiesced shared
// snapshot agree on every total. Run under -race this also proves
// Observe/Snapshot need no external synchronization.
func TestHistConcurrentMerge(t *testing.T) {
	const goroutines, perG = 8, 5000
	var shared Hist
	private := make([]Hist, goroutines)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A snapshot reader racing with the writers: values may be torn
	// between fields, but each load must be race-free and each bucket
	// monotone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := shared.Snapshot()
			var total uint64
			for _, c := range s.Buckets {
				total += c
			}
			if total < last {
				t.Error("bucket total went backwards")
				return
			}
			last = total
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				v := uint64(rng.Intn(1 << 20))
				shared.Observe(v)
				private[g].Observe(v)
			}
		}(g)
	}
	// Let the reader race against the writers for a moment, then stop
	// it and wait for everything.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	var merged HistSnapshot
	for g := range private {
		merged = merged.Merge(private[g].Snapshot())
	}
	got := shared.Snapshot()
	if merged.Count != goroutines*perG || got.Count != merged.Count {
		t.Fatalf("Count: merged=%d shared=%d want=%d", merged.Count, got.Count, goroutines*perG)
	}
	if got.Sum != merged.Sum {
		t.Fatalf("Sum: merged=%d shared=%d", merged.Sum, got.Sum)
	}
	if got.Max != merged.Max {
		t.Fatalf("Max: merged=%d shared=%d", merged.Max, got.Max)
	}
	if !slices.Equal(got.Buckets, merged.Buckets) {
		t.Fatal("bucket contents diverge between merged privates and shared")
	}
}

func TestHistSnapshotSubWindow(t *testing.T) {
	var h Hist
	h.Observe(10)
	h.Observe(20)
	before := h.Snapshot()
	h.Observe(1000)
	h.Observe(2000)
	win := h.Snapshot().Sub(before)
	if win.Count != 2 || win.Sum != 3000 {
		t.Fatalf("window = {Count:%d Sum:%d}, want {2 3000}", win.Count, win.Sum)
	}
	if got := win.Quantile(1.0); got < 2000 || got >= 4000 {
		t.Fatalf("window max-quantile = %d, want in [2000, 4000)", got)
	}
}

func TestObserveSince(t *testing.T) {
	var h Hist
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Max < uint64(time.Millisecond) {
		t.Fatalf("ObserveSince recorded {Count:%d Max:%d}", s.Count, s.Max)
	}
	// A start time in the future must clamp to zero, not wrap.
	h.ObserveSince(time.Now().Add(time.Hour))
	if s := h.Snapshot(); s.Max > uint64(time.Minute) {
		t.Fatalf("future start wrapped: Max=%d", s.Max)
	}
}

// TestHistMergeSubUnequal: snapshots cut at different lengths, and the
// zero value, merge and subtract as if the missing buckets were empty.
func TestHistMergeSubUnequal(t *testing.T) {
	var small, big Hist
	small.Observe(5)
	big.Observe(5)
	big.Observe(1 << 40)
	s, b := small.Snapshot(), big.Snapshot()
	if len(s.Buckets) >= len(b.Buckets) {
		t.Fatalf("lengths %d, %d: want the small snapshot shorter", len(s.Buckets), len(b.Buckets))
	}
	for _, m := range []HistSnapshot{s.Merge(b), b.Merge(s)} {
		if m.Count != 3 || m.Sum != 10+1<<40 || m.Max != 1<<40 ||
			len(m.Buckets) != len(b.Buckets) || m.Buckets[5] != 2 || m.Buckets[len(m.Buckets)-1] != 1 {
			t.Errorf("merge = {Count:%d Sum:%d Max:%d len:%d}", m.Count, m.Sum, m.Max, len(m.Buckets))
		}
	}
	if z := (HistSnapshot{}).Merge(b); z.Count != b.Count || !slices.Equal(z.Buckets, b.Buckets) {
		t.Errorf("zero.Merge(b) = %+v, want %+v", z, b)
	}
	// Merging must not write through to either operand's buckets.
	if s.Buckets[5] != 1 || b.Buckets[5] != 1 {
		t.Errorf("merge aliased an operand: %d, %d", s.Buckets[5], b.Buckets[5])
	}
	if w := b.Sub(s); w.Count != 1 || w.Buckets[5] != 0 || w.Quantile(1) != 1<<40 {
		t.Errorf("b.Sub(s) = {Count:%d bucket5:%d p100:%d}", w.Count, w.Buckets[5], w.Quantile(1))
	}
	if w := b.Sub(HistSnapshot{}); w.Count != b.Count || !slices.Equal(w.Buckets, b.Buckets) {
		t.Errorf("b.Sub(zero) = %+v, want %+v", w, b)
	}
	// A longer prev (a restarted server) saturates to an empty window.
	if w := s.Sub(b); w.Count != 0 || len(w.Buckets) != len(s.Buckets) || w.Buckets[5] != 0 {
		t.Errorf("s.Sub(b) = %+v, want empty", w)
	}
	if w := (HistSnapshot{}).Sub(b); w.Count != 0 || w.Quantile(0.99) != 0 {
		t.Errorf("zero.Sub(b) = %+v, want empty", w)
	}
}

func TestBucketUpper(t *testing.T) {
	// Values below 32 are exact.
	for v := uint64(0); v < 32; v++ {
		if bucketOf(v) != int(v) || bucketUpper(int(v)) != v {
			t.Errorf("bucketOf(%d) = %d, bucketUpper = %d; want exact", v, bucketOf(v), bucketUpper(int(v)))
		}
	}
	// Every octave edge lands in adjacent buckets.
	for k := 5; k < 64; k++ {
		if lo, hi := bucketOf(1<<k-1), bucketOf(1<<k); hi != lo+1 {
			t.Errorf("edge 2^%d: bucketOf(2^%d-1) = %d, bucketOf(2^%d) = %d", k, k, lo, k, hi)
		}
	}
	if got := bucketOf(math.MaxUint64); got != histBuckets-1 {
		t.Errorf("bucketOf(MaxUint64) = %d, want %d", got, histBuckets-1)
	}
	if got := bucketUpper(histBuckets - 1); got != math.MaxUint64 {
		t.Errorf("bucketUpper(last) = %d, want MaxUint64", got)
	}
	// Each value lies in (upper of the bucket below, upper of its own],
	// which is less than 1/16 above it.
	vals := []uint64{32, 33, 34, 47, 48, 100, 1000, 12345, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for k := 5; k < 64; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		vals = append(vals, rng.Uint64()>>rng.Intn(64))
	}
	for _, v := range vals {
		i := bucketOf(v)
		if up := bucketUpper(i); up < v || up-v > v/16 {
			t.Errorf("bucketUpper(bucketOf(%d)) = %d, want in [v, v+v/16]", v, up)
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Errorf("bucketUpper(bucketOf(%d)-1) = %d, want < v", v, bucketUpper(i-1))
		}
	}
}
