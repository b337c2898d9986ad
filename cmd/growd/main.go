// Command growd serves a typed concurrent map over TCP with the
// pipelined binary protocol of internal/server (docs/PROTOCOL.md):
// GET/SET/DEL/CAS/INCR/SIZE, the cache opcodes SETEX/EXPIRE/TTL, the
// batch opcodes MGET/MSET, plus an in-protocol PING that doubles as the
// health check. The table configuration mirrors the library's
// functional options, so the served map is the same engine the
// benchmarks measure; the cache flags turn the same binary into a
// bounded TTL cache (internal/cache) without any global lock.
//
//	growd                                  # uaGrow table on :7420
//	growd -addr :9000 -strategy usGrow
//	growd -capacity 1048576
//	growd -default-ttl 30s -max-entries 1000000   # bounded cache mode
//	growd -debug :8420                     # debug HTTP: /metrics, /debug/pprof, /debug/events
//	growd -log-format json -slow-op 500us  # structured logs, tighter slow-op capture
//
// The -debug listener is the observability surface: Prometheus text at
// /metrics (the process-wide obs registry — per-opcode latency
// histograms, migration-pause tracing, cache counters, plus the
// runtime/metrics bridge's GC-pause and sched-latency gauges; see
// docs/OBSERVABILITY.md), net/http/pprof at /debug/pprof, and the
// flight recorder's recent event window as JSON at /debug/events. The
// same registry is served in-protocol by the STATS opcode and the
// slow-op log by SLOWLOG, so clients can scrape without any HTTP
// listener at all.
//
// Logs go through log/slog, component-tagged; -log-format picks the
// text (default) or JSON handler. SIGQUIT dumps the flight-recorder
// window and the slow-op log to stderr without exiting — the classic
// "what is it doing right now" signal. growd drains gracefully on
// SIGINT/SIGTERM: the listener closes immediately, live sessions get
// -drain to finish their pipelines, then stragglers are force-closed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers on the -debug listener
	"os"
	"os/signal"
	"syscall"
	"time"

	growt "repro"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", server.DefaultAddr, "listen address")
		strategy  = flag.String("strategy", "uaGrow", "growing strategy: uaGrow, usGrow, paGrow, psGrow")
		capacity  = flag.Uint64("capacity", 0, "initial cell count (0 = library default)")
		debug     = flag.String("debug", "", "optional HTTP address exposing /metrics, /debug/pprof, /debug/events")
		drain     = flag.Duration("drain", 5*time.Second, "graceful shutdown budget before force-closing sessions")
		maxFrame  = flag.Uint("maxframe", server.DefaultMaxFrame, "per-frame byte cap")
		logFormat = flag.String("log-format", "text", "log handler: text or json")
		slowOp    = flag.Duration("slow-op", 0, "slow-op log latency threshold (0 = server default 1ms, negative = disabled)")

		defaultTTL = flag.Duration("default-ttl", 0, "TTL applied to SET/MSET entries (0 = immortal; SETEX always wins)")
		maxEntries = flag.Uint64("max-entries", 0, "entry budget; beyond it writes evict the oldest entries not read since the eviction hand last passed them (CLOCK/SIEVE; 0 = unbounded)")
		sweepEvery = flag.Duration("sweep-interval", 0, "background expiry sweep tick (0 = default 1s, negative = lazy expiry only)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "growd: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	log := logger.With("component", "growd")

	if *maxFrame == 0 || *maxFrame > math.MaxUint32 {
		log.Error("-maxframe out of range", "max", uint(math.MaxUint32))
		os.Exit(1)
	}

	opts, err := tableOptions(*strategy, *capacity)
	if err != nil {
		log.Error("bad table flags", "err", err)
		os.Exit(1)
	}
	opts = append(opts,
		growt.WithTTL(*defaultTTL),
		growt.WithMaxEntries(*maxEntries),
		growt.WithSweepInterval(*sweepEvery),
	)
	st := server.NewStore(opts...)
	defer st.Close()
	// obs.Default is where the core (migration pauses) and cache layers
	// already register; handing it to the server puts the per-opcode
	// series in the same registry, so one scrape — /metrics or the
	// STATS opcode — sees the whole stack. The runtime bridge joins the
	// same registry: every scrape also refreshes GC-pause,
	// sched-latency, and heap gauges, so a tail spike can be attributed
	// to the collector instead of the table when that is the truth.
	obs.RegisterRuntimeMetrics(obs.Default)
	srv := server.New(st, server.Options{
		MaxFrame:        uint32(*maxFrame),
		Obs:             obs.Default,
		SlowOpThreshold: *slowOp,
	})

	if *debug != "" {
		dlog := logger.With("component", "debug-http")
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.Default.WritePrometheus(w); err != nil {
				dlog.Warn("/metrics write failed", "err", err)
			}
		})
		// The flight recorder's recent window, time-merged across
		// shards, as a JSON array of {ts_nanos, kind, a0, a1, a2}.
		http.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := trace.WriteJSON(w, trace.Default.Drain()); err != nil {
				dlog.Warn("/debug/events write failed", "err", err)
			}
		})
		// The slow-op log, same body the SLOWLOG opcode returns.
		http.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(srv.SlowOps()); err != nil {
				dlog.Warn("/debug/slowlog write failed", "err", err)
			}
		})
		go func() {
			if err := http.ListenAndServe(*debug, nil); err != nil {
				dlog.Error("debug server failed", "addr", *debug, "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}

	// SIGQUIT dumps the recorder window and slow-op log to stderr and
	// keeps serving — Go's own SIGQUIT goroutine-dump behavior is
	// disabled for the notified signal, which is the point: the
	// flight-recorder view is the useful "what is it doing" answer.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		qlog := logger.With("component", "dump")
		for range quit {
			evs := trace.Default.Drain()
			qlog.Info("SIGQUIT event dump", "events", len(evs))
			if err := trace.WriteJSON(os.Stderr, evs); err != nil {
				qlog.Warn("event dump failed", "err", err)
			}
			slow := srv.SlowOps()
			qlog.Info("SIGQUIT slowlog dump", "entries", len(slow))
			if err := json.NewEncoder(os.Stderr).Encode(slow); err != nil {
				qlog.Warn("slowlog dump failed", "err", err)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		s := <-sig
		log.Info("draining", "signal", s.String(), "budget", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("shutdown incomplete", "err", err)
		}
	}()

	serveLog := log.With("strategy", *strategy, "addr", ln.Addr().String())
	if *defaultTTL > 0 || *maxEntries > 0 {
		serveLog = serveLog.With(
			"default_ttl", *defaultTTL,
			"max_entries", *maxEntries,
		)
	}
	serveLog.Info("serving")
	if err := srv.Serve(ln); err != nil {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
	// Serve returns nil only on the Shutdown path; wait for the drain to
	// actually finish (the listener closing is its first step, not its
	// last) so in-flight pipelines get their responses before exit.
	<-shutdownDone
	log.Info("bye", "ops_served", srv.Stats().Ops)
}

// newLogger builds the process logger per -log-format. Both handlers
// write to stderr so the data path owns stdout.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
	}
}

// tableOptions maps the flags onto the library's functional options.
func tableOptions(strategy string, capacity uint64) ([]growt.Option, error) {
	var opts []growt.Option
	switch strategy {
	case "uaGrow":
		opts = append(opts, growt.WithStrategy(growt.UAGrow))
	case "usGrow":
		opts = append(opts, growt.WithStrategy(growt.USGrow))
	case "paGrow":
		opts = append(opts, growt.WithStrategy(growt.PAGrow))
	case "psGrow":
		opts = append(opts, growt.WithStrategy(growt.PSGrow))
	default:
		return nil, fmt.Errorf("unknown strategy %q (uaGrow, usGrow, paGrow, psGrow)", strategy)
	}
	if capacity > 0 {
		opts = append(opts, growt.WithCapacity(capacity))
	}
	return opts, nil
}
