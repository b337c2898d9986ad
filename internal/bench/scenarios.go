package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/tables"
)

// Table sets per experiment, mirroring §8.1's grouping.
var (
	// AllTables: everything registered that takes part in the headline
	// comparisons.
	AllTables = []string{
		"folklore", "uaGrow", "usGrow",
		"phase", "hopscotch", "leahash",
		"folly", "cuckoo", "junctionlinear", "splitorder",
		"lockedchain", "shardedmap", "syncmap", "mutexmap",
	}
	// GrowingTables can grow efficiently from 4096 cells (§8.1.1), plus
	// the semi-growers started at half size (§8.1.2).
	GrowingTables = []string{
		"uaGrow", "usGrow", "paGrow", "psGrow",
		"junctionlinear", "splitorder", "leahash",
		"lockedchain", "shardedmap", "syncmap", "mutexmap",
		"cuckoo", "folly",
	}
	// SemiGrowers are initialized with half the target size (§8.1.2).
	SemiGrowers = map[string]bool{"folly": true}
	// AggTables support dependent atomic updates (insert-or-increment,
	// Fig. 5; the paper excludes tables whose interface cannot express it).
	AggTables = []string{
		"folklore", "uaGrow", "usGrow", "folly", "cuckoo",
		"lockedchain", "shardedmap", "syncmap", "mutexmap",
		"leahash", "splitorder", "junctionlinear",
	}
	// DelTables support deletion with memory reclamation (Fig. 6).
	DelTables = []string{
		"uaGrow", "usGrow", "cuckoo", "hopscotch", "splitorder",
		"junctionlinear", "leahash", "lockedchain",
		"shardedmap", "syncmap", "mutexmap",
	}
	// PoolTables compares user-thread vs pool migration (Fig. 8).
	PoolTables = []string{"uaGrow", "usGrow", "paGrow", "psGrow"}
)

// seqInsertSeconds measures the sequential baseline for speedup columns.
func seqInsertSeconds(cfg *Config, keys []uint64, presized bool) (float64, []float64) {
	return measure(cfg.Repeat, func() time.Duration {
		capacity := uint64(4096)
		if presized {
			capacity = cfg.N
		}
		t := newTable("seq", capacity)
		h := t.Handle()
		begin := time.Now()
		for _, k := range keys {
			h.Insert(k, k)
		}
		return time.Since(begin)
	})
}

// insertScenario is the core of Figs. 2a/2b/8a/9a/9b/11a.
func insertScenario(cfg *Config, exp string, tableSet []string, presized bool) []Result {
	cfg.Defaults()
	keys := UniformKeys(cfg.N, 12345)
	seqS, seqSamples := seqInsertSeconds(cfg, keys, presized)
	header(cfg.Out, exp, "—")
	results := []Result{{Exp: exp, Table: "seq", Threads: 1,
		MOps: float64(cfg.N) / seqS / 1e6, Seconds: seqS, Samples: seqSamples, Extra: "baseline"}}
	results[0].print(cfg.Out, "%.0f")
	for _, name := range tableSet {
		for _, p := range cfg.Threads {
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				capacity := uint64(4096)
				if presized {
					capacity = cfg.N
				} else if SemiGrowers[name] {
					capacity = cfg.N / 2
				}
				t := newTable(name, capacity)
				defer closeTable(t)
				hs := handlesFor(t, p)
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					for i := lo; i < hi; i++ {
						h.Insert(keys[i], keys[i])
					}
				})
			})
			r := Result{Exp: exp, Table: name, Threads: p,
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples,
				Extra: fmt.Sprintf("speedup %.2fx", seqS/secs)}
			r.print(cfg.Out, "%.0f")
			results = append(results, r)
		}
	}
	return results
}

// Fig2aInsertPresized — insert 10^8 uniform keys, pre-sized table.
func Fig2aInsertPresized(cfg *Config) []Result {
	cfg.Defaults()
	return insertScenario(cfg, "fig2a insert (pre-sized)", cfg.tableSet(AllTables), true)
}

// Fig2bInsertGrowing — insert into a table starting at 4096 cells.
func Fig2bInsertGrowing(cfg *Config) []Result {
	cfg.Defaults()
	return insertScenario(cfg, "fig2b insert (growing)", cfg.tableSet(GrowingTables), false)
}

// findScenario backs Figs. 3a/3b/11b.
func findScenario(cfg *Config, exp string, hit bool) []Result {
	cfg.Defaults()
	keys := UniformKeys(cfg.N, 12345)
	var lookups []uint64
	if hit {
		lookups = append([]uint64(nil), keys...)
		r := rand.New(rand.NewSource(7))
		r.Shuffle(len(lookups), func(i, j int) { lookups[i], lookups[j] = lookups[j], lookups[i] })
	} else {
		lookups = UniformKeys(cfg.N, 777) // fresh keys: almost surely absent
	}
	// Sequential baseline.
	seqS, seqSamples := measure(cfg.Repeat, func() time.Duration {
		t := newTable("seq", cfg.N)
		prefill(t, keys)
		h := t.Handle()
		begin := time.Now()
		var sink uint64
		for _, k := range lookups {
			v, _ := h.Find(k)
			sink += v
		}
		_ = sink
		return time.Since(begin)
	})
	header(cfg.Out, exp, "—")
	results := []Result{{Exp: exp, Table: "seq", Threads: 1,
		MOps: float64(cfg.N) / seqS / 1e6, Seconds: seqS, Samples: seqSamples, Extra: "baseline"}}
	results[0].print(cfg.Out, "%.0f")
	for _, name := range cfg.tableSet(AllTables) {
		t := newTable(name, cfg.N)
		prefill(t, keys)
		for _, p := range cfg.Threads {
			hs := handlesFor(t, p)
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					var sink uint64
					for i := lo; i < hi; i++ {
						v, _ := h.Find(lookups[i])
						sink += v
					}
					_ = sink
				})
			})
			r := Result{Exp: exp, Table: name, Threads: p,
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples,
				Extra: fmt.Sprintf("speedup %.2fx", seqS/secs)}
			r.print(cfg.Out, "%.0f")
			results = append(results, r)
		}
		closeTable(t)
	}
	return results
}

// Fig3aFindSuccess — successful finds on a filled table.
func Fig3aFindSuccess(cfg *Config) []Result { return findScenario(cfg, "fig3a find (hit)", true) }

// Fig3bFindMiss — unsuccessful finds.
func Fig3bFindMiss(cfg *Config) []Result { return findScenario(cfg, "fig3b find (miss)", false) }

// contentionScenario backs Figs. 4a/4b: the table holds 1..U; the op
// stream is Zipf-skewed with exponent s.
func contentionScenario(cfg *Config, exp string, update bool) []Result {
	cfg.Defaults()
	universe := cfg.N
	p := cfg.Threads[len(cfg.Threads)-1]
	header(cfg.Out, exp, "skew s")
	var results []Result
	fill := make([]uint64, universe)
	for i := range fill {
		fill[i] = uint64(i) + 1
	}
	for _, name := range cfg.tableSet(AllTables) {
		t := newTable(name, universe)
		prefill(t, fill)
		hs := handlesFor(t, p)
		for _, s := range cfg.Skews {
			zipf := ZipfKeys(cfg.N, universe, s, uint64(s*1000)+3)
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					if update {
						for i := lo; i < hi; i++ {
							h.Update(zipf[i], i, tables.Overwrite)
						}
					} else {
						var sink uint64
						for i := lo; i < hi; i++ {
							v, _ := h.Find(zipf[i])
							sink += v
						}
						_ = sink
					}
				})
			})
			r := Result{Exp: exp, Table: name, Threads: p, Param: s,
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples}
			r.print(cfg.Out, "%.2f")
			results = append(results, r)
		}
		closeTable(t)
	}
	return results
}

// Fig4aUpdateContention — overwrite updates under Zipf skew.
func Fig4aUpdateContention(cfg *Config) []Result {
	return contentionScenario(cfg, "fig4a update (contention)", true)
}

// Fig4bFindContention — reads under Zipf skew (contended reads profit
// from caching; the paper's 5×/10× sequential lines).
func Fig4bFindContention(cfg *Config) []Result {
	return contentionScenario(cfg, "fig4b find (contention)", false)
}

// aggScenario backs Figs. 5a/5b: insert-or-increment over a Zipf stream.
func aggScenario(cfg *Config, exp string, presized bool) []Result {
	cfg.Defaults()
	universe := cfg.N
	p := cfg.Threads[len(cfg.Threads)-1]
	header(cfg.Out, exp, "skew s")
	var results []Result
	for _, name := range cfg.tableSet(AggTables) {
		if caps, ok := tables.Lookup(name); !presized && ok && caps.Growing == "no" {
			continue // bounded tables cannot run the growing variant
		}
		for _, s := range cfg.Skews {
			zipf := ZipfKeys(cfg.N, universe, s, uint64(s*1000)+11)
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				capacity := uint64(4096)
				if presized {
					capacity = universe
				} else if SemiGrowers[name] {
					capacity = universe / 2
				}
				t := newTable(name, capacity)
				defer closeTable(t)
				hs := handlesFor(t, p)
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					if a, ok := h.(tables.Adder); ok {
						for i := lo; i < hi; i++ {
							a.InsertOrAdd(zipf[i], 1)
						}
						return
					}
					for i := lo; i < hi; i++ {
						h.InsertOrUpdate(zipf[i], 1, tables.AddFn)
					}
				})
			})
			r := Result{Exp: exp, Table: name, Threads: p, Param: s,
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples}
			r.print(cfg.Out, "%.2f")
			results = append(results, r)
		}
	}
	return results
}

// Fig5aAggPresized — aggregation into a pre-sized table.
func Fig5aAggPresized(cfg *Config) []Result {
	return aggScenario(cfg, "fig5a aggregation (pre-sized)", true)
}

// Fig5bAggGrowing — aggregation with growing from 4096 cells.
func Fig5bAggGrowing(cfg *Config) []Result {
	return aggScenario(cfg, "fig5b aggregation (growing)", false)
}

// deleteScenario backs Figs. 6/8b: a sliding window of live keys —
// each op is one insert plus one delete, the table size stays ~window.
func deleteScenario(cfg *Config, exp string, tableSet []string, includePhase bool) []Result {
	cfg.Defaults()
	window := cfg.N / 10
	if window < BlockOps {
		window = BlockOps
	}
	keys := UniformKeys(cfg.N+window, 4242)
	header(cfg.Out, exp, "—")
	var results []Result
	for _, name := range tableSet {
		for _, p := range cfg.Threads {
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				t := newTable(name, window*3/2) // 1.5× window, §8.4
				defer closeTable(t)
				prefill(t, keys[:window])
				hs := handlesFor(t, p)
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					for i := lo; i < hi; i++ {
						h.Insert(keys[window+i], i)
						h.Delete(keys[i])
					}
				})
			})
			r := Result{Exp: exp, Table: name, Threads: p,
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples,
				Extra: "1 op = insert+delete"}
			r.print(cfg.Out, "%.0f")
			results = append(results, r)
		}
	}
	// The phase-concurrent table runs the same workload in globally
	// synchronized alternating phases (its concurrency model, §8.1.3).
	if includePhase {
		results = append(results, phaseDeleteRuns(cfg, exp, keys, window)...)
	}
	return results
}

// phaseDeleteRuns measures the phase-concurrent table on the sliding
// window workload with phase barriers between insert and delete rounds.
func phaseDeleteRuns(cfg *Config, exp string, keys []uint64, window uint64) []Result {
	var results []Result
	// One phase round inserts `round` keys before the matching deletes;
	// it must fit the 1.5×window capacity alongside the live window.
	round := window
	for _, p := range cfg.Threads {
		secs, samples := measure(cfg.Repeat, func() time.Duration {
			t := newTable("phase", window*3/2)
			prefill(t, keys[:window])
			hs := handlesFor(t, p)
			begin := time.Now()
			for base := uint64(0); base < cfg.N; base += round {
				end := base + round
				if end > cfg.N {
					end = cfg.N
				}
				// Insert phase.
				run(p, end-base, func(w int, lo, hi uint64) {
					h := hs[w]
					for i := base + lo; i < base+hi; i++ {
						h.Insert(keys[window+i], i)
					}
				})
				// Delete phase.
				run(p, end-base, func(w int, lo, hi uint64) {
					h := hs[w]
					for i := base + lo; i < base+hi; i++ {
						h.Delete(keys[i])
					}
				})
			}
			return time.Since(begin)
		})
		r := Result{Exp: exp, Table: "phase", Threads: p,
			MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples,
			Extra: "phased rounds"}
		r.print(cfg.Out, "%.0f")
		results = append(results, r)
	}
	return results
}

// Fig6Delete — the deletion benchmark.
func Fig6Delete(cfg *Config) []Result {
	cfg.Defaults()
	return deleteScenario(cfg, "fig6 insert+delete window", cfg.tableSet(DelTables), true)
}

// mixScenario backs Figs. 7a/7b: wp% inserts, the rest finds of keys
// inserted ≥ 8192·p operations earlier (§8.4 "Mixed Insertions and
// Finds").
func mixScenario(cfg *Config, exp string, presized bool) []Result {
	cfg.Defaults()
	p := cfg.Threads[len(cfg.Threads)-1]
	pre := uint64(8192 * p)
	insertKeys := UniformKeys(cfg.N+pre, 900)
	rnd := rand.New(rand.NewSource(31))
	header(cfg.Out, exp, "wp %")
	var results []Result
	set := cfg.tableSet(AllTables)
	for _, name := range set {
		if name == "phase" {
			continue // mixed op kinds violate phase concurrency
		}
		if caps, ok := tables.Lookup(name); !presized && ok && caps.Growing == "no" {
			continue // bounded tables cannot run the growing variant
		}
		for _, wp := range cfg.WPs {
			// Precompute the op stream: kind + key.
			type op struct {
				insert bool
				key    uint64
			}
			ops := make([]op, cfg.N)
			inserted := pre
			for i := range ops {
				if rnd.Intn(100) < wp {
					ops[i] = op{insert: true, key: insertKeys[inserted]}
					inserted++
				} else {
					// A key inserted at least `pre` ops earlier.
					j := uint64(rnd.Int63n(int64(inserted-pre) + 1))
					ops[i] = op{key: insertKeys[j]}
				}
			}
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				capacity := pre + uint64(float64(wp)/100*float64(cfg.N))
				if !presized {
					if SemiGrowers[name] {
						capacity = capacity / 2
					} else {
						capacity = 4096
					}
				}
				t := newTable(name, capacity)
				defer closeTable(t)
				prefill(t, insertKeys[:pre])
				hs := handlesFor(t, p)
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					var sink uint64
					for i := lo; i < hi; i++ {
						if ops[i].insert {
							h.Insert(ops[i].key, i)
						} else {
							v, _ := h.Find(ops[i].key)
							sink += v
						}
					}
					_ = sink
				})
			})
			r := Result{Exp: exp, Table: name, Threads: p, Param: float64(wp),
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples}
			r.print(cfg.Out, "%.0f")
			results = append(results, r)
		}
	}
	return results
}

// Fig7aMixPresized — mixed finds/inserts, pre-sized.
func Fig7aMixPresized(cfg *Config) []Result {
	return mixScenario(cfg, "fig7a mixed ops (pre-sized)", true)
}

// Fig7bMixGrowing — mixed finds/inserts with growing.
func Fig7bMixGrowing(cfg *Config) []Result {
	return mixScenario(cfg, "fig7b mixed ops (growing)", false)
}

// Fig8aPoolInsert — dedicated-pool vs enslavement migration, growing
// inserts.
func Fig8aPoolInsert(cfg *Config) []Result {
	cfg.Defaults()
	return insertScenario(cfg, "fig8a pool vs user migration (insert)", PoolTables, false)
}

// Fig8bPoolDelete — dedicated-pool vs enslavement on the deletion
// workload (frequent small migrations stress pool wakeups, §8.4).
func Fig8bPoolDelete(cfg *Config) []Result {
	cfg.Defaults()
	return deleteScenario(cfg, "fig8b pool vs user migration (delete)", PoolTables, false)
}

// Fig10Memory — unsuccessful-find throughput vs memory footprint for a
// sweep of initial sizes (§8.4 "Memory Consumption").
func Fig10Memory(cfg *Config) []Result {
	cfg.Defaults()
	keys := UniformKeys(cfg.N, 12345)
	misses := UniformKeys(cfg.N, 888)
	p := cfg.Threads[len(cfg.Threads)-1]
	factors := []float64{0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0}
	header(cfg.Out, "fig10 memory vs miss-find throughput", "size factor")
	var results []Result
	for _, name := range cfg.tableSet(AllTables) {
		caps, _ := tables.Lookup(name)
		grower := caps.Growing != "no" && caps.Growing != "const factor"
		sweep := factors
		if grower {
			sweep = append([]float64{0}, factors...) // 0 ⇒ start at 4096 (dashed lines)
		} else {
			// Bounded tables need headroom above the element count; with
			// power-of-two N the 0.5× point would be exactly full.
			sweep = factors[1:]
		}
		for _, f := range sweep {
			capacity := uint64(4096)
			if f > 0 {
				capacity = uint64(f * float64(cfg.N))
			}
			t := newTable(name, capacity)
			prefill(t, keys)
			var bytes uint64
			if mu, ok := t.(tables.MemUser); ok {
				bytes = mu.MemBytes()
			}
			hs := handlesFor(t, p)
			secs, samples := measure(cfg.Repeat, func() time.Duration {
				return run(p, cfg.N, func(w int, lo, hi uint64) {
					h := hs[w]
					var sink uint64
					for i := lo; i < hi; i++ {
						v, _ := h.Find(misses[i])
						sink += v
					}
					_ = sink
				})
			})
			// Param is the deterministic sweep factor (the independent
			// variable), so data points keep stable identities across
			// reports; the measured footprint rides along in Bytes.
			extra := fmt.Sprintf("%.3f GiB", float64(bytes)/(1<<30))
			if bytes == 0 {
				extra = "no byte accounting"
			}
			if f == 0 {
				extra += ", grown from 4096"
			}
			r := Result{Exp: "fig10", Table: name, Threads: p, Param: f, Bytes: bytes,
				MOps: float64(cfg.N) / secs / 1e6, Seconds: secs, Samples: samples, Extra: extra}
			r.print(cfg.Out, "%.2f")
			results = append(results, r)
			closeTable(t)
		}
	}
	return results
}

// Fig11aManyThreads — growing inserts over a wide thread sweep (the
// paper's 4-socket machine; here GOMAXPROCS oversubscription).
func Fig11aManyThreads(cfg *Config) []Result {
	cfg.Defaults()
	cfg.Threads = []int{1, 2, 4, 8, 16, 32, 64}
	return insertScenario(cfg, "fig11a insert growing (wide sweep)", cfg.tableSet(GrowingTables), false)
}

// Fig11bManyThreads — unsuccessful finds over a wide thread sweep.
func Fig11bManyThreads(cfg *Config) []Result {
	cfg.Defaults()
	cfg.Threads = []int{1, 2, 4, 8, 16, 32, 64}
	return findScenario(cfg, "fig11b find miss (wide sweep)", false)
}

// Table1 prints the functionality matrix (Table 1 of the paper).
func Table1(cfg *Config) []Result {
	cfg.Defaults()
	fmt.Fprintf(cfg.Out, "\n== Table 1: table functionalities ==\n")
	fmt.Fprintf(cfg.Out, "%-16s %-24s %-22s %-28s %-9s %-9s %s\n",
		"name", "interface", "growing", "atomic updates", "deletion", "generic", "reference")
	for _, c := range tables.All() {
		del, gen := "-", "-"
		if c.Deletion {
			del = "yes"
		}
		if c.GeneralTypes {
			gen = "yes"
		}
		fmt.Fprintf(cfg.Out, "%-16s %-24s %-22s %-28s %-9s %-9s %s\n",
			c.Name, c.StdInterface, c.Growing, c.AtomicUpdates, del, gen, c.Reference)
	}
	return nil
}

// tableSet intersects the configured table filter with a default set.
func (c *Config) tableSet(def []string) []string {
	if len(c.Tables) == 0 {
		return def
	}
	var out []string
	for _, want := range c.Tables {
		for _, d := range def {
			if want == d {
				out = append(out, want)
				break
			}
		}
	}
	if len(out) == 0 {
		return c.Tables // explicit names outside the default set
	}
	return out
}

// Experiments maps experiment ids to their runners.
var Experiments = map[string]func(*Config) []Result{
	"table1": Table1,
	"fig2a":  Fig2aInsertPresized,
	"fig2b":  Fig2bInsertGrowing,
	"fig3a":  Fig3aFindSuccess,
	"fig3b":  Fig3bFindMiss,
	"fig4a":  Fig4aUpdateContention,
	"fig4b":  Fig4bFindContention,
	"fig5a":  Fig5aAggPresized,
	"fig5b":  Fig5bAggGrowing,
	"fig6":   Fig6Delete,
	"fig7a":  Fig7aMixPresized,
	"fig7b":  Fig7bMixGrowing,
	"fig8a":  Fig8aPoolInsert,
	"fig8b":  Fig8bPoolDelete,
	"fig10":  Fig10Memory,
	"fig11a": Fig11aManyThreads,
	"fig11b": Fig11bManyThreads,
	"sweep":  SweepCycle,
}

// Order is the canonical experiment order for "-exp all".
var Order = []string{
	"table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b",
	"fig5a", "fig5b", "fig6", "fig7a", "fig7b", "fig8a", "fig8b",
	"fig10", "fig11a", "fig11b", "sweep",
}
