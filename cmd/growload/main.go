// Command growload drives a growd server (cmd/growd) with a skewed
// GET/SET mix through the pipelined client and reports end-to-end
// serving throughput and latency percentiles. Two admission modes:
//
//   - closed loop (default): -conns × -depth workers each keep exactly
//     one request outstanding, so admission is completion-paced — the
//     classic throughput probe;
//   - open loop (-rate N): requests are admitted on a fixed schedule of
//     N ops/s regardless of completions, and each latency is measured
//     from the *scheduled* admission time, so queueing delay under
//     overload is charged to the server — the serving-tail probe.
//
// Key skew is the paper's Zipf generator (internal/zipfgen); the mix is
// -writep percent SETs against GETs on an 8-byte key universe of
// -keys, prefilled before timing starts.
//
// With -ttl the run becomes an expiring workload: -ttlp percent of the
// writes are SETEX with that TTL, entries die under the load, and the
// summary (and the BENCH record) reports the observed GET hit-rate —
// the cache-serving probe against a growd running -default-ttl /
// -max-entries.
//
// Every run (unless -stats=false) scrapes the server's obs registry
// over the STATS opcode before and after the measured window and
// subtracts the snapshots, so the summary and the BENCH record carry
// the server's own view of that exact window: per-opcode exec latency
// percentiles, migration counts and pause histograms, and sweeper
// progress — figures a client-side histogram cannot see.
//
//	growload -addr 127.0.0.1:7420 -conns 4 -depth 16 -duration 5s
//	growload -rate 50000 -skew 1.05 -writep 20 -json BENCH_service.json
//	growload -ttl 500ms -writep 30 -json BENCH_cache.json
//
// With -json the run is recorded as a service-kind record in the
// versioned BENCH report schema (internal/bench/report), next to the
// fig-experiments' records.
package main

import (
	"encoding/binary"
	stderrors "errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench/lathist"
	"repro/internal/bench/report"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/zipfgen"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1"+server.DefaultAddr, "growd address")
		conns    = flag.Int("conns", 4, "pooled connections")
		depth    = flag.Int("depth", 16, "closed-loop workers per connection (the pipeline depth)")
		rate     = flag.Float64("rate", 0, "open-loop admission rate in ops/s (0 = closed loop)")
		duration = flag.Duration("duration", 5*time.Second, "measured run length")
		keys     = flag.Uint64("keys", 100000, "key universe size")
		skew     = flag.Float64("skew", 0.99, "Zipf exponent over the key universe")
		writep   = flag.Int("writep", 10, "percent of operations that are SETs")
		valsize  = flag.Int("valsize", 32, "SET value size in bytes")
		ttl      = flag.Duration("ttl", 0, "expiring-workload mode: TTL carried by SETEX writes (0 = plain SETs)")
		ttlp     = flag.Int("ttlp", 100, "percent of writes issued as SETEX when -ttl is set")
		prefill  = flag.Bool("prefill", true, "SET every key once before timing starts")
		dialwait = flag.Duration("dialwait", 10*time.Second, "keep retrying the initial connect until this deadline")
		stats    = flag.Bool("stats", true, "scrape server-side STATS snapshots around the measured window")
		jsonOut  = flag.String("json", "", "write a service-kind BENCH report to this path")
		exp      = flag.String("exp", "svc-mixed", "experiment id recorded in the report")
		table    = flag.String("table", "growd", "table label recorded in the report")
	)
	flag.Parse()
	// Summary lines stay human-readable on stdout; errors and warnings
	// go through slog on stderr like growd's.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "growload"))
	if *writep < 0 || *writep > 100 {
		fatal(fmt.Errorf("-writep must be 0..100"))
	}
	if *ttlp < 0 || *ttlp > 100 {
		fatal(fmt.Errorf("-ttlp must be 0..100"))
	}
	if *keys < 1 {
		fatal(fmt.Errorf("-keys must be >= 1"))
	}
	if *conns < 1 || *depth < 1 {
		// Zero workers would "measure" nothing, exit 0, and write an
		// all-zero record.
		fatal(fmt.Errorf("-conns and -depth must be >= 1"))
	}

	cl, err := client.Dial(*addr, client.WithConns(*conns), client.WithDialWait(*dialwait))
	if err != nil {
		fatal(fmt.Errorf("dial %s: %w", *addr, err))
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		fatal(fmt.Errorf("ping: %w", err))
	}

	val := make([]byte, *valsize)
	r := rng.NewSplitMix64(0x9E3779B97F4A7C15)
	for i := range val {
		val[i] = byte(r.Uint64())
	}

	if *prefill {
		if err := doPrefill(cl, *keys, val); err != nil {
			fatal(fmt.Errorf("prefill: %w", err))
		}
	}

	// Server-side window bracketing: one STATS scrape after the prefill
	// (so prefill traffic is excluded) and one after the run; their
	// difference is the server's exact view of the measured window.
	var before obs.Snapshot
	statsOK := false
	if *stats {
		if s, err := cl.Stats(); err != nil {
			slog.Warn("STATS scrape failed; continuing without server-side stats", "err", err)
		} else {
			before, statsOK = s, true
		}
	}

	run := runner{
		cl: cl, keys: *keys, skew: *skew,
		writep: *writep, val: val,
		ttl: *ttl, ttlp: *ttlp,
	}
	var res runResult
	if *rate > 0 {
		res = run.openLoop(*rate, *duration)
	} else {
		res = run.closedLoop(*conns**depth, *duration)
	}

	var win obs.Snapshot
	if statsOK {
		if s, err := cl.Stats(); err != nil {
			slog.Warn("STATS scrape failed; continuing without server-side stats", "err", err)
			statsOK = false
		} else {
			win = s.Sub(before)
		}
	}
	// The slow-op log rides the same scrape policy as STATS: pulled
	// after the measured window so the entries are the window's own
	// slow requests (the ring holds the most recent slowLogSlots only).
	var slowOps []server.SlowEntry
	if *stats {
		if es, err := cl.SlowLog(); err != nil {
			slog.Warn("SLOWLOG scrape failed; continuing without slow-op log", "err", err)
		} else {
			slowOps = es
		}
	}

	mode := "closed"
	if *rate > 0 {
		mode = fmt.Sprintf("open@%g/s", *rate)
	}
	// The recorded experiment id carries every workload-defining knob:
	// the comparator matches records by (exp, table, threads, param), so
	// two growload runs may only gate against each other when they ran
	// the same workload — a different write mix, TTL regime, or
	// admission mode must be a different key, not a silent
	// apples-to-oranges verdict.
	ttlTag := ""
	if *ttl > 0 {
		ttlTag = fmt.Sprintf(",ttl%v@%d%%", *ttl, *ttlp)
	}
	recExp := fmt.Sprintf("%s[wp%d,v%d,k%d,d%d,%s%s]",
		*exp, *writep, *valsize, *keys, *depth, mode, ttlTag)
	mops := float64(res.completed) / res.seconds / 1e6
	fmt.Printf("growload: %s loop, %d conns: %d ops in %.2fs = %.3f MOps/s (%d errors)\n",
		mode, *conns, res.completed, res.seconds, mops, res.errors)
	extra := fmt.Sprintf("ops=%d conns=%d", res.completed, *conns)
	if gets := res.hits + res.misses; gets > 0 {
		rate := float64(res.hits) / float64(gets)
		fmt.Printf("hit-rate: %.4f (%d hits, %d misses)\n", rate, res.hits, res.misses)
		extra += fmt.Sprintf(" hit_rate=%.4f", rate)
	}
	fmt.Printf("latency: p50 %v  p95 %v  p99 %v  mean %v\n",
		res.hist.Quantile(0.50), res.hist.Quantile(0.95), res.hist.Quantile(0.99), res.hist.Mean())
	extraMap := serverWindow(win, statsOK)
	if len(slowOps) > 0 {
		if extraMap == nil {
			extraMap = make(map[string]float64)
		}
		var maxLat uint64
		for _, e := range slowOps {
			if e.LatencyNanos > maxLat {
				maxLat = e.LatencyNanos
			}
		}
		extraMap["slow_ops"] = float64(len(slowOps))
		extraMap["slow_op_max_us"] = nsf(maxLat)
		last := slowOps[len(slowOps)-1]
		fmt.Printf("server: %d slow ops logged, slowest %v; latest: %s gen=%d qdepth=%d\n",
			len(slowOps), time.Duration(maxLat), last.Op, last.Generation, last.QueueDepth)
	}

	if *jsonOut != "" {
		rec := report.Record{
			Kind:      report.KindService,
			Exp:       recExp,
			Table:     *table,
			Threads:   *conns * *depth,
			Param:     *skew,
			ParamName: "skew",
			MOps:      mops,
			Seconds:   res.seconds,
			// One measured window; the comparator's median falls back to it.
			SampleSecs: []float64{res.seconds},
			Extra:      extra,
			ExtraMap:   extraMap,
			P50us:      us(res.hist.Quantile(0.50)),
			P95us:      us(res.hist.Quantile(0.95)),
			P99us:      us(res.hist.Quantile(0.99)),
			MeanUs:     us(res.hist.Mean()),
		}
		// N records the configured key universe — a true config knob;
		// the measured op count lives in the record's Extra.
		rep := report.NewFromRecords(report.RunConfig{
			N:       *keys,
			Threads: []int{*conns * *depth},
			Skews:   []float64{*skew},
			WPs:     []int{*writep},
			Repeat:  1,
		}, []report.Record{rec}, "growload "+strings.Join(os.Args[1:], " "))
		if err := rep.Save(*jsonOut); err != nil {
			fatal(err)
		}
		slog.Info("wrote service record", "path", *jsonOut)
	}
	if res.errors > 0 {
		os.Exit(1)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nsf converts an obs nanosecond figure to microseconds for the record.
func nsf(ns uint64) float64 { return float64(ns) / 1e3 }

// serverWindow prints the server-side view of the measured window and
// returns its machine-readable form for the BENCH record's ExtraMap.
// Series names mirror docs/OBSERVABILITY.md; a series the server did
// not register simply reads as zero and is left out of the map.
func serverWindow(win obs.Snapshot, ok bool) map[string]float64 {
	if !ok {
		return nil
	}
	em := map[string]float64{
		"srv_ops": float64(win.Counter("growd_ops_total")),
	}
	fmt.Printf("server: %d ops executed in-window\n", win.Counter("growd_ops_total"))

	// Per-opcode exec latency: the server's view of the same requests
	// the client-side histogram timed (minus the network and queueing).
	for _, op := range []string{"get", "set", "setex", "mget", "mset"} {
		h := win.Hist(`growd_op_nanos{op="` + op + `"}`)
		if h.Count == 0 {
			continue
		}
		em["srv_"+op+"_p99_us"] = nsf(h.Quantile(0.99))
		fmt.Printf("server: %s exec p50 %v p99 %v max %v (%d ops)\n", op,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)),
			time.Duration(h.Max), h.Count)
	}

	// Migration-pause tracing: how many generations flipped under the
	// load, how long the copies ran, and what the enslaved user
	// operations paid — the §8 growth-pause tail, measured in situ.
	migs := win.Counter(`growt_migrations_total{trigger="grow"}`) +
		win.Counter(`growt_migrations_total{trigger="shrink"}`) +
		win.Counter(`growt_migrations_total{trigger="cleanup"}`)
	// The count itself is always honest (zero means zero); the derived
	// figures — cells copied, wall/assist percentiles — are only
	// recorded and printed when migrations actually completed in the
	// window. A 0-valued p99 in the record reads like a measurement of
	// instant migrations, which is exactly the wrong conclusion.
	em["migrations"] = float64(migs)
	if migs > 0 {
		wall := win.Hist("growt_migration_wall_nanos")
		assist := win.Hist("growt_migration_assist_nanos")
		em["mig_cells_copied"] = float64(win.Counter("growt_migration_cells_copied_total"))
		// Sub keeps the cumulative Max (a max cannot be windowed); it is
		// still an upper bound for every in-window migration.
		if wall.Count > 0 {
			em["mig_wall_max_us"] = nsf(wall.Max)
		}
		em["mig_assist_p99_us"] = nsf(assist.Quantile(0.99))
		em["mig_assist_count"] = float64(assist.Count)
		fmt.Printf("server: %d migrations (%d cells copied), wall p99 %v max %v; assist p99 %v over %d assisted ops\n",
			migs, win.Counter("growt_migration_cells_copied_total"),
			time.Duration(wall.Quantile(0.99)), time.Duration(wall.Max),
			time.Duration(assist.Quantile(0.99)), assist.Count)
	}

	// Sweeper progress (expiring workloads; zero otherwise).
	em["sweep_visited"] = float64(win.Counter("growt_cache_sweep_visited_total"))
	em["sweep_removed"] = float64(win.Counter("growt_cache_sweep_removed_total"))
	if v := win.Counter("growt_cache_sweep_visited_total"); v > 0 {
		fmt.Printf("server: sweeper visited %d, removed %d in-window\n",
			v, win.Counter("growt_cache_sweep_removed_total"))
	}
	return em
}

// doPrefill SETs every key once through the pipeline (async, so the
// prefill runs at pipelined throughput, not round-trip pace).
func doPrefill(cl *client.Client, keys uint64, val []byte) error {
	var wg sync.WaitGroup
	var errs atomic.Uint64
	sem := make(chan struct{}, 4096) // bound outstanding prefill requests
	for k := uint64(1); k <= keys; k++ {
		wg.Add(1)
		sem <- struct{}{}
		cl.SetAsync(keyBytes(k), val, func(r client.Resp) {
			if r.Err != nil || r.Status != server.StatusOK {
				errs.Add(1)
			}
			<-sem
			wg.Done()
		})
	}
	wg.Wait()
	if n := errs.Load(); n > 0 {
		return fmt.Errorf("%d of %d prefill SETs failed", n, keys)
	}
	return nil
}

// keyBytes is the 8-byte big-endian wire key for a universe index.
func keyBytes(k uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, k)
}

type runner struct {
	cl     *client.Client
	keys   uint64
	skew   float64
	writep int
	val    []byte
	ttl    time.Duration // > 0: expiring workload (SETEX writes)
	ttlp   int           // percent of writes carrying the TTL
}

type runResult struct {
	completed uint64
	errors    uint64
	hits      uint64 // GETs answered OK
	misses    uint64 // GETs answered NOT_FOUND (expired or never set)
	seconds   float64
	hist      *lathist.H
}

// closedLoop runs workers synchronous request loops until the deadline.
// Latency is measured around each round trip.
func (r *runner) closedLoop(workers int, d time.Duration) runResult {
	hist := &lathist.H{}
	var completed, errors, hits, misses atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	time.AfterFunc(d, func() { stop.Store(true) })
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := zipfgen.New(r.keys, r.skew, rng.NewSplitMix64(uint64(w)*0x9E3779B9+1))
			mix := rng.NewSplitMix64(uint64(w) + 0xD1B54A32D192ED03)
			for !stop.Load() {
				key := keyBytes(z.Next())
				isWrite := int(mix.Uint64()%100) < r.writep
				withTTL := isWrite && r.ttl > 0 && int(mix.Uint64()%100) < r.ttlp
				t0 := time.Now()
				var err error
				var found bool
				switch {
				case withTTL:
					err = r.cl.SetEx(key, r.val, r.ttl)
				case isWrite:
					err = r.cl.Set(key, r.val)
				default:
					_, found, err = r.cl.Get(key)
				}
				hist.Record(time.Since(t0))
				if err != nil {
					errors.Add(1)
					if stderrors.Is(err, client.ErrClosed) {
						// The connection is gone for good: spinning would
						// count millions of instant failures and drown the
						// latency histogram in 1µs error samples.
						return
					}
					continue
				}
				if !isWrite {
					if found {
						hits.Add(1)
					} else {
						misses.Add(1)
					}
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return runResult{
		completed: completed.Load(),
		errors:    errors.Load(),
		hits:      hits.Load(),
		misses:    misses.Load(),
		seconds:   time.Since(start).Seconds(),
		hist:      hist,
	}
}

// openLoop admits requests on the fixed schedule start + i/rate and
// measures each latency from its scheduled admission time, so requests
// that queue behind a slow server accrue their waiting time (the
// coordinated-omission-free measurement).
func (r *runner) openLoop(rate float64, d time.Duration) runResult {
	hist := &lathist.H{}
	var completed, errors, hits, misses atomic.Uint64
	var issued uint64
	var wg sync.WaitGroup
	z := zipfgen.New(r.keys, r.skew, rng.NewSplitMix64(1))
	mix := rng.NewSplitMix64(0xD1B54A32D192ED03)
	interval := time.Duration(float64(time.Second) / rate)

	start := time.Now()
	deadline := start.Add(d)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		// Admit everything the schedule owes us up to now.
		for {
			sched := start.Add(time.Duration(issued) * interval)
			if sched.After(now) || !sched.Before(deadline) {
				break
			}
			key := keyBytes(z.Next())
			isWrite := int(mix.Uint64()%100) < r.writep
			withTTL := isWrite && r.ttl > 0 && int(mix.Uint64()%100) < r.ttlp
			wg.Add(1)
			cb := func(resp client.Resp) {
				hist.Record(time.Since(sched))
				switch {
				case resp.Err != nil || (resp.Status != server.StatusOK && resp.Status != server.StatusNotFound):
					errors.Add(1)
				default:
					if !isWrite {
						if resp.Status == server.StatusOK {
							hits.Add(1)
						} else {
							misses.Add(1)
						}
					}
					completed.Add(1)
				}
				wg.Done()
			}
			switch {
			case withTTL:
				r.cl.SetExAsync(key, r.val, r.ttl, cb)
			case isWrite:
				r.cl.SetAsync(key, r.val, cb)
			default:
				r.cl.GetAsync(key, cb)
			}
			issued++
		}
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait() // drain the tail; its latency is part of the story
	return runResult{
		completed: completed.Load(),
		errors:    errors.Load(),
		hits:      hits.Load(),
		misses:    misses.Load(),
		seconds:   time.Since(start).Seconds(),
		hist:      hist,
	}
}

func fatal(err error) {
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
