package main

import (
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	growt "repro"
	_ "repro/internal/baselines" // registers mutexmap, shardedmap, syncmap
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tables"
)

// The two in-process workloads. Both run rounds of fixed work until the
// measured window is used up and report medians over rounds; 1 op in 64
// is timed on its own, which is where their latency percentiles come
// from.

const (
	blockOps  = 4096 // §8.3: work is dealt to goroutines in blocks this size
	maxRounds = 64
	minRounds = 3
)

func init() { obs.RegisterRuntimeMetrics(obs.Default) }

// roundTimer runs rounds until the window is spent.
type roundTimer struct {
	start time.Time
	limit time.Duration
	n     int
}

func newRoundTimer(seconds float64) *roundTimer {
	return &roundTimer{start: time.Now(), limit: time.Duration(seconds * float64(time.Second))}
}

func (rt *roundTimer) next() bool {
	if rt.n >= maxRounds || rt.n >= minRounds && time.Since(rt.start) >= rt.limit {
		return false
	}
	rt.n++
	return true
}

// goN runs f(g) on n goroutines and returns the wall time of the
// slowest.
func goN(n int, f func(g int)) time.Duration {
	var wg sync.WaitGroup
	t := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
	return time.Since(t)
}

// libEndToEnd fills the end-to-end metrics of an in-process workload.
// rss_mb is the driver's own resident set: it is the process that holds
// the table.
func libEndToEnd(out *outcome, setupS float64, opsPerS []float64, recs []*recorder) error {
	// Collected and scavenged first, so the figure is what the process
	// needs with its table live, not what the collector had yet to hand
	// back when the window happened to end.
	debug.FreeOSMemory()
	rss, err := rssMB(os.Getpid())
	if err != nil {
		return err
	}
	out.set("setup_s", setupS)
	out.set("ops_per_s", median(opsPerS))
	out.set("lat_p50_us", slicePercentile(mergeSlices(recs), 0.50)/1e3)
	out.set("rss_mb", rss)
	return nil
}

// goRuntimeMetrics reads the driver's own GC and scheduler figures
// through the same bridge growd exports them with.
func goRuntimeMetrics(out *outcome, before, after obs.Snapshot) {
	out.set("go.gc_cycles", float64(after.Gauge("go_gc_cycles")-before.Gauge("go_gc_cycles")))
	out.set("go.gc_pause_p99_us", float64(after.Gauge("go_gc_pause_p99_nanos"))/1e3)
	out.set("go.sched_latency_p99_us", float64(after.Gauge("go_sched_latency_p99_nanos"))/1e3)
	out.set("go.heap_live_mb", float64(after.Gauge("go_heap_live_bytes"))/(1<<20))
}

func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ---------------------------------------------------------------------
// lib-grow

// inserter is the one operation lib-grow times, at whichever boundary.
type inserter func(k, v uint64) bool
type finder func(k uint64) (uint64, bool)

// sink is where the individually timed operations of a pass go: a
// latency recorder per goroutine, span logs per goroutine, both or
// neither.
type sink struct {
	rec   []*recorder
	round int
	sb    []spanBuf
	name  spanName
	base  int64 // request id of key index 0; ids must not repeat across rounds
}

func (s *sink) add(g, i int, start, end int64) {
	if s.rec != nil {
		s.rec[g].add(s.round, end-start)
	}
	if s.sb != nil {
		s.sb[g].add(s.name, s.base+int64(i/sampleEvery), start, end)
	}
}

// growPass inserts every key from `threads` goroutines, dealt in
// blockOps blocks off a shared counter, through accessors made by mk.
// 1 insert in 64 is timed on its own and handed to the sink. It returns
// the wall time and how many inserts were refused (none should be: keys
// are distinct).
func growPass(keys []uint64, threads int, mk func() (inserter, finder), to sink) (time.Duration, int64) {
	var next, refused atomic.Int64
	wall := goN(threads, func(g int) {
		ins, _ := mk()
		var bad int64
		for {
			lo := int(next.Add(blockOps)) - blockOps
			if lo >= len(keys) {
				break
			}
			for i := lo; i < min(lo+blockOps, len(keys)); i++ {
				if i%sampleEvery != 0 {
					if !ins(keys[i], uint64(i)) {
						bad++
					}
					continue
				}
				t := nanos()
				ok := ins(keys[i], uint64(i))
				to.add(g, i, t, nanos())
				if !ok {
					bad++
				}
			}
		}
		refused.Add(bad)
	})
	return wall, refused.Load()
}

// findPass looks up every 64th key on one goroutine and checks it maps
// to its index.
func findPass(keys []uint64, find finder, to sink) (attempted, wrong int64) {
	for i := 0; i < len(keys); i += sampleEvery {
		t := nanos()
		v, ok := find(keys[i])
		to.add(0, i, t, nanos())
		attempted++
		if !ok || v != uint64(i) {
			wrong++
		}
	}
	return attempted, wrong
}

// facadeRound is one lib-grow round at the workload's own boundary: a
// fresh growt.New[uint64,uint64], every key inserted through per-
// goroutine Handles, then the table's size and a sample of Finds
// checked. The caller closes the returned table.
func facadeRound(keys []uint64, to sink) (opsPerS float64, attempted, failed int64, m *growt.Map[uint64, uint64]) {
	m = growt.New[uint64, uint64]()
	mk := func() (inserter, finder) {
		h := m.Handle()
		return h.Insert, h.Find
	}
	to.name = spWordUpsert
	wall, refused := growPass(keys, procs, mk, to)
	_, find := mk()
	to.name, to.rec = spWordFind, nil
	finds, wrong := findPass(keys, find, to)
	var size int64
	m.Range(func(uint64, uint64) bool { size++; return true })
	failed = refused + wrong
	if size != int64(len(keys)) {
		fmt.Printf("# lib-grow: table holds %d keys, want %d\n", size, len(keys))
		failed++
	}
	return float64(len(keys)) / wall.Seconds(), int64(len(keys)) + finds + 1, failed, m
}

func setupLibGrow(cfg *config) ([]uint64, error) {
	keys := make([]uint64, cfg.sz.growKeys)
	for i := range keys {
		keys[i] = keyWord(cfg.seed, uint64(i))
	}
	// One untimed round: the allocator, the page cache and the migration
	// pools have all been through a full growth before timing starts.
	_, _, failed, m := facadeRound(keys, sink{})
	m.Close()
	if failed != 0 {
		return nil, fmt.Errorf("warm-up round failed %d checks", failed)
	}
	return keys, nil
}

func runLibGrow(cfg *config) (*outcome, error) {
	// Five set-ups, not three: the first pays the process's cold start and
	// the second, one time in two, a sixth of a second of heap growth the
	// first left over, so a median of three flips between two values.
	keys, setupS, err := setupRepeated(cfg, 5, func() ([]uint64, error) { return setupLibGrow(cfg) }, func([]uint64) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	recs := make([]*recorder, procs)
	for g := range recs {
		recs[g] = newRecorder(maxRounds, len(keys)/sampleEvery)
	}
	var last *growt.Map[uint64, uint64] // the latest round's table, kept until the next round starts
	plainRound := func(round int) float64 {
		if last != nil {
			last.Close()
			last = nil
		}
		runtime.GC()
		rate, attempted, failed, m := facadeRound(keys, sink{rec: recs, round: round})
		last = m
		out.attempted += attempted
		out.failed += failed
		return rate
	}
	defer func() { last.Close() }()
	if !cfg.trace {
		var rates []float64
		for rt := newRoundTimer(cfg.seconds); rt.next(); {
			rates = append(rates, plainRound(rt.n-1))
		}
		err := libEndToEnd(out, setupS, rates, recs) // reads RSS with the last table still live
		runtime.KeepAlive(last)
		return out, err
	}

	// Traced: three plain rounds as the yardstick, then rounds that run
	// the same key stream at three boundaries — the facade, the full-key
	// wrapper, the raw growing core — each on a fresh table, with spans.
	plain := []float64{plainRound(0), plainRound(1), plainRound(2)}
	tr := newTracer(procs)
	before := obs.Default.Snapshot()
	var traced []float64
	var inserted, bytesPerEntry float64
	var allocs uint64
	var mig obs.Snapshot
	for rt := newRoundTimer(cfg.seconds); rt.next(); {
		to := sink{sb: tr.gen, base: int64(rt.n) << 32}
		heap0 := heapAlloc()
		s0, m0 := obs.Default.Snapshot(), mallocs()
		rate, attempted, failed, m := facadeRound(keys, to)
		allocs += mallocs() - m0
		mig = addSnap(mig, obs.Default.Snapshot().Sub(s0))
		bytesPerEntry = (heapAlloc() - heap0) / float64(len(keys))
		m.Close()
		traced = append(traced, rate)
		inserted += float64(len(keys))
		out.attempted += attempted
		out.failed += failed

		// The twins' answers are not part of the workload's verdict:
		// folding 64-bit keys into the raw core's 63-bit domain can,
		// rarely, merge two of them, which is the fold's doing.
		fk := newFullKeys()
		fkMk := func() (inserter, finder) { h := fk.Handle(); return h.Insert, h.Find }
		to.name = spFullKeysUpsert
		growPass(keys, procs, fkMk, to)
		_, find := fkMk()
		to.name = spFullKeysFind
		findPass(keys, find, to)
		fk.Close()

		g := core.NewGrow(core.UA, 4096)
		coreMk := func() (inserter, finder) {
			h := g.Handle()
			return func(k, v uint64) bool { return h.Insert(coreKey(k), v) },
				func(k uint64) (uint64, bool) { return h.Find(coreKey(k)) }
		}
		to.name = spCoreUpsert
		growPass(keys, procs, coreMk, to)
		_, find = coreMk()
		to.name = spCoreFind
		findPass(keys, find, to)
		g.Close()
	}
	after := obs.Default.Snapshot()

	setSpanRows(out, tr.table())
	migrationMetrics(out, mig, inserted)
	goRuntimeMetrics(out, before, after)
	out.set("lat_p99_us", slicePercentile(mergeSlices(recs), 0.99)/1e3) // the plain rounds' samples
	out.set("fail_ratio", ratio(float64(out.failed), float64(out.attempted)))
	out.set("bytes_per_entry", bytesPerEntry)
	out.set("allocs_per_op", float64(allocs)/inserted)
	out.set("loadgen.trace_overhead_ratio", ratio(median(traced), median(plain)))

	// The same key stream through the paper's comparators, and through
	// the raw core on one goroutine.
	pass := func(name string, threads int) float64 {
		runtime.GC()
		var t tables.Interface = core.NewGrow(core.UA, 4096)
		if name != "core" {
			if t, err = tables.New(name, 4096); err != nil {
				return 0
			}
		}
		wall, _ := growPass(keys, threads, func() (inserter, finder) {
			h := t.Handle()
			return func(k, v uint64) bool { return h.Insert(coreKey(k), v) }, nil
		}, sink{})
		if c, ok := t.(tables.Closer); ok {
			c.Close()
		}
		return float64(len(keys)) / wall.Seconds()
	}
	out.set("core.ops_per_s_t1", pass("core", 1))
	for _, name := range []string{"mutexmap", "shardedmap", "syncmap"} {
		out.set("baselines."+name+"_ops_per_s_t1", pass(name, 1))
		out.set("baselines."+name+"_ops_per_s_t2", pass(name, procs))
	}
	out.set("speedup_vs_mutexmap", ratio(median(plain), out.m["baselines.mutexmap_ops_per_s_t2"]))
	zeroUnset(out)
	return out, tr.write(cfg.outDir, cfg.workload)
}

// addSnap sums counter and histogram windows (gauges keep b's).
func addSnap(a, b obs.Snapshot) obs.Snapshot {
	if a.Counters == nil {
		return b
	}
	for name, v := range b.Counters {
		a.Counters[name] += v
	}
	for name, h := range b.Hists {
		a.Hists[name] = a.Hists[name].Merge(h)
	}
	return a
}

// ---------------------------------------------------------------------
// lib-mixed

// mixedEnv is lib-mixed's data: the table growd serves, prefilled, and
// one op stream per goroutine.
type mixedEnv struct {
	m     *growt.Map[server.Key, string]
	seed  maphash.Seed
	words []uint64
	keys  []server.Key
	vals  []string
	ops   [][]uint32
	bytes float64 // heap the table added, per entry (traced runs)
}

func setupLibMixed(cfg *config) (*mixedEnv, error) {
	n := cfg.sz.mixedKeys
	e := &mixedEnv{seed: maphash.MakeSeed(), words: make([]uint64, n), keys: make([]server.Key, n), vals: make([]string, n)}
	for i := range e.keys {
		e.words[i] = keyWord(cfg.seed, uint64(i))
		e.keys[i] = server.Key(keyBytes(e.words[i]))
		e.vals[i] = string(valueFor(e.words[i]))
	}
	for g := 0; g < procs; g++ {
		e.ops = append(e.ops, opStream(cfg.seed, g, cfg.sz.mixedOps, uint64(n), 10))
	}
	var heap0 float64
	if cfg.trace {
		heap0 = heapAlloc()
	}
	e.m = genericMap(e.seed)
	for i := 0; i < n; i++ {
		e.m.Store(e.keys[i], e.vals[i])
	}
	if cfg.trace {
		e.bytes = (heapAlloc() - heap0) / float64(n)
	}
	if got := e.m.ApproxSize(); got != uint64(n) {
		return nil, fmt.Errorf("prefill: table holds %d keys, want %d", got, n)
	}
	return e, nil
}

// roundsPerStream: a lib-mixed round consumes this share of each
// goroutine's op stream, so successive rounds see different ops and the
// window holds enough rounds for a steady median.
const roundsPerStream = 4

// round runs the round's share of every goroutine's op stream through
// the handle-free Map.Load / Map.Store and checks every value read. 1 op in 64 is timed
// on its own; with a tracer it also opens the request's spans and the
// ladder replays it.
func (e *mixedEnv) round(rec []*recorder, round int, tr *tracer) (opsPerS float64, attempted, failed int64) {
	var bad atomic.Int64
	part := len(e.ops[0]) / roundsPerStream
	lo := round % roundsPerStream * part
	wall := goN(procs, func(g int) {
		var wrong int64
		for i, w := range e.ops[g][lo : lo+part] {
			idx := w &^ setFlag
			k := e.keys[idx]
			sampled := i%sampleEvery == 0
			var t int64
			if sampled {
				t = nanos()
			}
			if w&setFlag != 0 {
				e.m.Store(k, e.vals[idx])
			} else if v, ok := e.m.Load(k); !ok || len(v) != valLen || v[:8] != string(k) {
				wrong++
			}
			if !sampled {
				continue
			}
			end := nanos()
			if rec != nil {
				rec[g].add(round, end-t)
			}
			if tr != nil {
				req := tr.nextReq()
				name := spMapLoad
				if w&setFlag != 0 {
					name = spMapStore
				}
				tr.gen[g].add(name, req, t, end)
				tr.replay(g, req, e.words[idx], w&setFlag != 0)
			}
		}
		bad.Add(wrong)
	})
	n := int64(procs * part)
	return float64(n) / wall.Seconds(), n, bad.Load()
}

func runLibMixed(cfg *config) (*outcome, error) {
	e, setupS, err := setupRepeated(cfg, 3, func() (*mixedEnv, error) { return setupLibMixed(cfg) }, func(e *mixedEnv) { e.m.Close() })
	if err != nil {
		return nil, err
	}
	defer e.m.Close()
	out := newOutcome()
	recs := make([]*recorder, procs)
	for g := range recs {
		recs[g] = newRecorder(maxRounds, len(e.ops[g])/roundsPerStream/sampleEvery+1)
	}
	measure := func(rounds func() bool, round func() int, tr *tracer) []float64 {
		var rates []float64
		for rounds() {
			runtime.GC()
			rate, attempted, failed := e.round(recs, round(), tr)
			rates = append(rates, rate)
			out.attempted += attempted
			out.failed += failed
		}
		return rates
	}
	e.round(nil, 0, nil) // warm-up: handle pool filled, hot keys cached
	if !cfg.trace {
		rt := newRoundTimer(cfg.seconds)
		rates := measure(rt.next, func() int { return rt.n - 1 }, nil)
		return out, libEndToEnd(out, setupS, rates, recs)
	}

	// Traced: twins for the rows below Map (the workload's own table is
	// the Map row), two plain rounds as the yardstick, then traced rounds.
	tw := newTwins(false, false)
	defer tw.close()
	tr := newTracer(procs)
	for g := 0; g < procs; g++ {
		tr.lad = append(tr.lad, tw.ladder())
	}
	goN(procs, func(g int) {
		for i := g; i < len(e.words); i += procs {
			tr.lad[g].fill(e.words[i])
		}
	})
	i := 0
	plain := measure(func() bool { i++; return i <= 2 }, func() int { return i - 1 }, nil)

	before := obs.Default.Snapshot()
	mallocs0, borrows0, attempted0 := mallocs(), e.m.PoolBorrows(), out.attempted
	rt := newRoundTimer(cfg.seconds)
	traced := measure(rt.next, func() int { return rt.n + 1 }, tr)
	ops := float64(out.attempted - attempted0)
	after := obs.Default.Snapshot()

	setSpanRows(out, tr.table())
	out.set("lat_p99_us", slicePercentile(mergeSlices(recs), 0.99)/1e3)
	// The ladder's own stores are part of the malloc count; it replays 1
	// op in 64, a tenth of them writes, at four boundaries.
	out.set("allocs_per_op", float64(mallocs()-mallocs0)/ops)
	out.set("facade.pool_borrows_per_op", float64(e.m.PoolBorrows()-borrows0)/ops)
	k, v := e.keys[0], e.vals[0]
	out.set("facade.store_allocs", allocsPer(2000, func() { e.m.Store(k, v) }))
	migrationMetrics(out, after.Sub(before), 0)
	goRuntimeMetrics(out, before, after)
	out.set("fail_ratio", ratio(float64(out.failed), float64(out.attempted)))
	out.set("bytes_per_entry", e.bytes)
	out.set("loadgen.trace_overhead_ratio", ratio(median(traced), median(plain)))
	zeroUnset(out)
	for _, l := range tr.lad {
		l.close()
	}
	return out, tr.write(cfg.outDir, cfg.workload)
}
