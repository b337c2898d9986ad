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
// summary reports the observed GET hit-rate — the cache-serving probe
// against a growd running -default-ttl / -max-entries.
//
// Latencies are recorded in nanoseconds into an obs.Hist, the
// histogram growd times its own requests with, so the client's and the
// server's quantiles share one bucket scheme and one error bound (an
// upper bound less than 1/16 above the exact value). Every run (unless
// -stats=false) scrapes the server's obs registry over the STATS opcode
// before and after the measured window and subtracts the snapshots, so
// the summary carries the server's own view of that exact window:
// per-opcode exec latency percentiles, migration counts and pause
// histograms, and sweeper progress — figures a client-side histogram
// cannot see.
//
//	growload -addr 127.0.0.1:7420 -conns 4 -depth 16 -duration 5s
//	growload -rate 50000 -skew 1.05 -writep 20
//	growload -ttl 500ms -writep 30
package main

import (
	"encoding/binary"
	stderrors "errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

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
		// Zero workers would "measure" nothing and exit 0.
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
	fmt.Printf("growload: %s loop, %d conns: %d ops in %.2fs = %.3f MOps/s (%d errors)\n",
		mode, *conns, res.completed, res.seconds, float64(res.completed)/res.seconds/1e6, res.errors)
	if gets := res.hits + res.misses; gets > 0 {
		fmt.Printf("hit-rate: %.4f (%d hits, %d misses)\n", float64(res.hits)/float64(gets), res.hits, res.misses)
	}
	lat := res.hist.Snapshot()
	fmt.Printf("latency: p50 %v  p95 %v  p99 %v  mean %v\n",
		time.Duration(lat.Quantile(0.50)), time.Duration(lat.Quantile(0.95)),
		time.Duration(lat.Quantile(0.99)), time.Duration(lat.Mean()))
	if statsOK {
		serverWindow(win)
	}
	if len(slowOps) > 0 {
		var maxLat uint64
		for _, e := range slowOps {
			if e.LatencyNanos > maxLat {
				maxLat = e.LatencyNanos
			}
		}
		last := slowOps[len(slowOps)-1]
		fmt.Printf("server: %d slow ops logged, slowest %v; latest: %s gen=%d\n",
			len(slowOps), time.Duration(maxLat), last.Op, last.Generation)
	}
	if res.errors > 0 {
		os.Exit(1)
	}
}

// serverWindow prints the server-side view of the measured window.
// Series names mirror docs/OBSERVABILITY.md; a series the server did
// not register simply reads as zero and is left out.
func serverWindow(win obs.Snapshot) {
	fmt.Printf("server: %d ops executed in-window\n", win.Counter("growd_ops_total"))

	// Per-opcode exec latency: the server's view of the same requests
	// the client-side histogram timed (minus the network and queueing).
	for _, op := range []string{"get", "set", "setex", "mget", "mset"} {
		h := win.Hist(`growd_op_nanos{op="` + op + `"}`)
		if h.Count == 0 {
			continue
		}
		fmt.Printf("server: %s exec p50 %v p99 %v max %v (%d ops)\n", op,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)),
			time.Duration(h.Max), h.Count)
	}

	// Migration-pause tracing: how many generations flipped under the
	// load, how long the copies ran, and what the enslaved user
	// operations paid — the §8 growth-pause tail, measured in situ.
	// The derived figures are only printed when migrations actually
	// completed in the window: a 0-valued p99 reads like a measurement
	// of instant migrations, which is exactly the wrong conclusion.
	migs := win.Counter(`growt_migrations_total{trigger="grow"}`) +
		win.Counter(`growt_migrations_total{trigger="shrink"}`) +
		win.Counter(`growt_migrations_total{trigger="cleanup"}`)
	if migs > 0 {
		wall := win.Hist("growt_migration_wall_nanos")
		assist := win.Hist("growt_migration_assist_nanos")
		// Sub keeps the cumulative Max (a max cannot be windowed); it is
		// still an upper bound for every in-window migration.
		fmt.Printf("server: %d migrations (%d cells copied), wall p99 %v max %v; assist p99 %v over %d assisted ops\n",
			migs, win.Counter("growt_migration_cells_copied_total"),
			time.Duration(wall.Quantile(0.99)), time.Duration(wall.Max),
			time.Duration(assist.Quantile(0.99)), assist.Count)
	}

	// Sweeper progress (expiring workloads; zero otherwise).
	if v := win.Counter("growt_cache_sweep_visited_total"); v > 0 {
		fmt.Printf("server: sweeper visited %d, removed %d in-window\n",
			v, win.Counter("growt_cache_sweep_removed_total"))
	}
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
	hist      *obs.Hist // nanoseconds
}

// closedLoop runs workers synchronous request loops until the deadline.
// Latency is measured around each round trip.
func (r *runner) closedLoop(workers int, d time.Duration) runResult {
	hist := &obs.Hist{}
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
				hist.ObserveSince(t0)
				if err != nil {
					errors.Add(1)
					if stderrors.Is(err, client.ErrClosed) {
						// The connection is gone for good: spinning would
						// count millions of instant failures and drown the
						// latency histogram in instant error samples.
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
	hist := &obs.Hist{}
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
				hist.ObserveSince(sched)
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
