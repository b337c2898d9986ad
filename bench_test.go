// bench_test.go provides one testing.B benchmark per table/figure of the
// paper's evaluation (§8), backed by the same scenario code as the
// growbench CLI. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use a reduced op count so `go test -bench` stays tractable;
// use cmd/growbench with -n for full-scale sweeps. Reported metric: the
// custom "MOps/s" unit per table (higher is better), matching the
// figures' y-axes.
package growt_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	growt "repro"
	"repro/internal/bench"
	"repro/internal/rng"
	"repro/internal/zipfgen"

	_ "repro/internal/baselines"
	_ "repro/internal/core"
)

// benchCfg builds a small configuration; tables can narrow the set.
func benchCfg(b *testing.B, tables ...string) *bench.Config {
	b.Helper()
	cfg := &bench.Config{
		N:       1 << 16,
		Threads: []int{4},
		Skews:   []float64{0.85, 1.25},
		WPs:     []int{30, 60},
		Repeat:  1,
		Tables:  tables,
	}
	cfg.Defaults()
	return cfg
}

// publish reports each scenario result as a benchmark metric: the
// throughput of the one repeat benchCfg asks for.
func publish(b *testing.B, results []bench.Result) {
	b.Helper()
	for _, r := range results {
		name := r.Table
		if r.Param != 0 {
			name = fmt.Sprintf("%s_p%g", r.Table, r.Param)
		}
		b.ReportMetric(r.MOps, name+"_MOps")
	}
}

func runScenario(b *testing.B, f func(*bench.Config) []bench.Result, tables ...string) {
	for i := 0; i < b.N; i++ {
		results := f(benchCfg(b, tables...))
		if i == b.N-1 {
			publish(b, results)
		}
	}
}

var headline = []string{"folklore", "uaGrow", "usGrow", "mutexmap", "syncmap", "cuckoo"}

func BenchmarkFig2aInsertPresized(b *testing.B) {
	runScenario(b, bench.Fig2aInsertPresized, headline...)
}

func BenchmarkFig2bInsertGrowing(b *testing.B) {
	runScenario(b, bench.Fig2bInsertGrowing, "uaGrow", "usGrow", "junctionlinear", "syncmap", "mutexmap")
}

func BenchmarkFig3aFindSuccess(b *testing.B) {
	runScenario(b, bench.Fig3aFindSuccess, headline...)
}

func BenchmarkFig3bFindMiss(b *testing.B) {
	runScenario(b, bench.Fig3bFindMiss, headline...)
}

func BenchmarkFig4aUpdateContention(b *testing.B) {
	runScenario(b, bench.Fig4aUpdateContention, "folklore", "uaGrow", "usGrow", "cuckoo", "mutexmap")
}

func BenchmarkFig4bFindContention(b *testing.B) {
	runScenario(b, bench.Fig4bFindContention, "folklore", "uaGrow", "usGrow", "cuckoo", "mutexmap")
}

func BenchmarkFig5aAggPresized(b *testing.B) {
	runScenario(b, bench.Fig5aAggPresized, "folklore", "uaGrow", "usGrow", "syncmap")
}

func BenchmarkFig5bAggGrowing(b *testing.B) {
	runScenario(b, bench.Fig5bAggGrowing, "uaGrow", "usGrow", "syncmap")
}

func BenchmarkFig6Delete(b *testing.B) {
	runScenario(b, bench.Fig6Delete, "uaGrow", "usGrow", "hopscotch", "cuckoo", "splitorder")
}

func BenchmarkFig7aMixPresized(b *testing.B) {
	runScenario(b, bench.Fig7aMixPresized, headline...)
}

func BenchmarkFig7bMixGrowing(b *testing.B) {
	runScenario(b, bench.Fig7bMixGrowing, "uaGrow", "usGrow", "junctionlinear", "syncmap")
}

func BenchmarkFig8aPoolInsert(b *testing.B) {
	runScenario(b, bench.Fig8aPoolInsert)
}

func BenchmarkFig8bPoolDelete(b *testing.B) {
	runScenario(b, bench.Fig8bPoolDelete)
}

func BenchmarkFig10Memory(b *testing.B) {
	runScenario(b, bench.Fig10Memory, "folklore", "uaGrow", "folly")
}

func BenchmarkFig11aManyThreads(b *testing.B) {
	runScenario(b, bench.Fig11aManyThreads, "uaGrow", "usGrow", "syncmap")
}

func BenchmarkFig11bManyThreads(b *testing.B) {
	runScenario(b, bench.Fig11bManyThreads, "folklore", "uaGrow", "syncmap")
}

// The three benchmarks below price the handle-free Map's hop: one
// generic-route map and one key stream, driven through Map.Load / Map.Store
// (an acquire and a release per op) and through a pinned Session (neither).
//
//	go test -run '^$' -bench 'MapLoadParallel|MapStoreParallel|SessionLoad' -cpu 2
//
// "hot" is a single key, "zipf1M" a Zipf(0.99) stream over 2^20 keys.

type facadeWorkload struct {
	m       *growt.Map[string, uint64]
	keys    []string
	streams [][]uint32 // one precomputed key-index stream per P
}

var facadeWorkloads = map[string]func() *facadeWorkload{
	"hot":    sync.OnceValue(func() *facadeWorkload { return newFacadeWorkload(1) }),
	"zipf1M": sync.OnceValue(func() *facadeWorkload { return newFacadeWorkload(1 << 20) }),
}

func newFacadeWorkload(n int) *facadeWorkload {
	w := &facadeWorkload{m: growt.New[string, uint64](growt.WithCapacity(2 * uint64(n))), keys: make([]string, n)}
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("key-%07d", i)
		w.m.Store(w.keys[i], uint64(i))
	}
	// Make a handle per P now. One made in the measured loop lies beside
	// the testing.PB of the goroutine that made it, which every pb.Next
	// writes: once that handle is in another P's hands, each Load reads a
	// line the first P keeps dirtying (the hot row then read double in
	// three runs out of four).
	warm := make([]*growt.Session[string, uint64], runtime.GOMAXPROCS(0))
	for i := range warm {
		warm[i] = w.m.Session()
	}
	for _, s := range warm {
		s.Close()
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		z := zipfgen.New(uint64(n), 0.99, rng.NewSplitMix64(uint64(g)+1))
		st := make([]uint32, 1<<16)
		for i := range st {
			st[i] = uint32(z.Next() - 1)
		}
		w.streams = append(w.streams, st)
	}
	return w
}

// benchFacade runs bind's op from every P over that P's key stream; bind
// is called once per goroutine and returns the op and its clean-up.
func benchFacade(b *testing.B, bind func(m *growt.Map[string, uint64]) (op func(k string) uint64, done func())) {
	for _, name := range []string{"hot", "zipf1M"} {
		b.Run(name, func(b *testing.B) {
			w := facadeWorkloads[name]()
			var g, sum atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				op, done := bind(w.m)
				defer done()
				st := w.streams[int(g.Add(1))%len(w.streams)]
				var n uint64
				for i := 0; pb.Next(); i++ {
					n += op(w.keys[st[i%len(st)]])
				}
				sum.Add(n)
			})
		})
	}
}

func BenchmarkMapLoadParallel(b *testing.B) {
	benchFacade(b, func(m *growt.Map[string, uint64]) (func(string) uint64, func()) {
		return func(k string) uint64 { v, _ := m.Load(k); return v }, func() {}
	})
}

func BenchmarkMapStoreParallel(b *testing.B) {
	benchFacade(b, func(m *growt.Map[string, uint64]) (func(string) uint64, func()) {
		return func(k string) uint64 { m.Store(k, 1); return 0 }, func() {}
	})
}

func BenchmarkSessionLoad(b *testing.B) {
	benchFacade(b, func(m *growt.Map[string, uint64]) (func(string) uint64, func()) {
		s := m.Session()
		return func(k string) uint64 { v, _ := s.Load(k); return v }, s.Close
	})
}

// The four benchmarks below price the two routes an integer-keyed map can
// take, on 2^16 warm keys through one Handle: uint64 → uint64 rides the
// word route (the width codec of codec.go), uint64 → string the generic
// route with the default integer hasher — no workload in benchmark/
// reaches the second. "inorder" visits the keys in the order they were
// inserted, which is the order of the generic route's arena entries and
// boxed values; "scattered" in a pseudorandom one, a cache miss per hop.
//
//	go test -run '^$' -bench 'BenchmarkWord|BenchmarkIntKeyWide' -benchmem

const benchWarmKeys = 1 << 16

// benchWarm runs op over a handle of a map holding the warm keys, once
// per key order.
func benchWarm[V any](b *testing.B, val V, op func(h *growt.Handle[uint64, V], k uint64, i int)) {
	for _, order := range []struct {
		name string
		key  func(i int) uint64
	}{
		{"inorder", func(i int) uint64 { return uint64(i) % benchWarmKeys }},
		{"scattered", func(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 >> 48 }},
	} {
		b.Run(order.name, func(b *testing.B) {
			m := growt.New[uint64, V]()
			defer m.Close()
			h := m.Handle()
			for k := uint64(0); k < benchWarmKeys; k++ {
				h.Insert(k, val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(h, order.key(i), i)
			}
		})
	}
}

func BenchmarkWordFind(b *testing.B) {
	benchWarm(b, uint64(1), func(h *growt.Handle[uint64, uint64], k uint64, _ int) { h.Find(k) })
}

func BenchmarkWordStore(b *testing.B) {
	benchWarm(b, uint64(1), func(h *growt.Handle[uint64, uint64], k uint64, i int) {
		h.InsertOrUpdate(k, uint64(i), growt.Replace[uint64])
	})
}

func BenchmarkIntKeyWideFind(b *testing.B) {
	benchWarm(b, "value", func(h *growt.Handle[uint64, string], k uint64, _ int) { h.Find(k) })
}

func BenchmarkIntKeyWideStore(b *testing.B) {
	benchWarm(b, "value", func(h *growt.Handle[uint64, string], k uint64, _ int) {
		h.InsertOrUpdate(k, "other", growt.Replace[string])
	})
}
