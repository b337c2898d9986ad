// Command benchmark is this repository's only instrument for
// performance claims. It runs one of five named workloads — three
// against a growd child process over loopback, two against the library
// in-process — checks every answer, and prints each metric by name with
// its unit. An untraced run (-trace 0) reports the end-to-end metrics;
// a traced run (-trace 1) prices the same operations at every layer
// boundary from outside the program. README.md is the dictionary.
//
//	bash benchmark/run.sh --workload svc-read --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const (
	procs = 2   // this box's nproc: GOMAXPROCS of driver and growd, generator goroutines, connections
	gogc  = 100 // both processes, stated so the environment cannot change it
)

// config is one run's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured window
	trace    bool
	smoke    bool   // tiny data sets, for tests
	growdBin string // prebuilt growd; run.sh supplies it
	outDir   string
	sz       sizes
}

// sizes are the data-set dimensions; -smoke shrinks them so tests run
// in about a second.
type sizes struct {
	svcKeys     int    // svc-read / svc-open prefill
	churnSpan   uint64 // svc-churn: reads reach this many ids back
	churnBudget int    // svc-churn: growd -max-entries
	growKeys    int    // lib-grow: keys inserted per round
	mixedKeys   int    // lib-mixed: prefilled keys
	mixedOps    int    // lib-mixed: length of each goroutine's op stream
}

var fullSizes = sizes{
	svcKeys: 200_000, churnSpan: 200_000, churnBudget: 100_000,
	growKeys: 1 << 21, mixedKeys: 1_000_000, mixedOps: 1 << 20,
}

var smokeSizes = sizes{
	svcKeys: 4096, churnSpan: 4096, churnBudget: 2048,
	growKeys: 1 << 15, mixedKeys: 1 << 14, mixedOps: 1 << 14,
}

// outcome is what a workload hands back: how many operations it checked
// and the metrics it measured.
type outcome struct {
	attempted, failed int64
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.m[name] = v }

var workloads = map[string]func(*config) (*outcome, error){
	"svc-read":  runSvcRead,
	"svc-open":  runSvcOpen,
	"svc-churn": runSvcChurn,
	"lib-grow":  runLibGrow,
	"lib-mixed": runLibMixed,
}

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "every input is derived from this")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	flag.IntVar(&repeat, "repeat", 0, "run K times on seeds seed..seed+K-1 and print each metric's spread")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny data sets (tests)")
	flag.StringVar(&cfg.growdBin, "growd", os.Getenv("BENCH_GROWD"), "path of a built growd (run.sh builds one)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for span files")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sz = fullSizes
	if cfg.smoke {
		cfg.sz = smokeSizes
	}

	if cfg.workload == "all" || repeat > 0 {
		os.Exit(runMany(&cfg, repeat))
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q (want one of %s, or all)\n",
			cfg.workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}

	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gogc)
	guard()
	printEnv(&cfg)

	out, err := run(&cfg)
	if err != nil {
		killChildren()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := emit(&cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if out.failed != 0 {
		os.Exit(1)
	}
}

// setupRepeated sets the workload up n times, tearing it down in
// between and keeping the last: setup_s is the median of the set-up
// times, so one slow fork or page-cache miss does not decide it. A
// traced run does not report setup_s and sets up once.
func setupRepeated[E any](cfg *config, n int, setup func() (E, error), teardown func(E)) (env E, setupS float64, err error) {
	if cfg.trace || cfg.smoke {
		n = 1
	}
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
		}
		t := time.Now()
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return env, median(times), nil
}

// zeroUnset gives every per-layer metric the workload did not measure
// the value 0: the layer does not run there (no server on lib-*, no word
// route on svc-*, no open loop outside svc-open).
func zeroUnset(out *outcome) {
	for _, d := range perLayer {
		if _, ok := out.m[d.name]; !ok {
			out.set(d.name, 0)
		}
	}
}

// guard bounds the run: a signal or a run past 170 s kills every growd
// child and exits non-zero, so nothing outlives the benchmark.
func guard() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		case <-time.After(170 * time.Second):
			fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s")
		}
		killChildren()
		os.Exit(3)
	}()
}

// printEnv records what the numbers were taken on.
func printEnv(cfg *config) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t smoke=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
	fmt.Printf("# go=%s nproc=%d GOMAXPROCS=%d GOGC=%d cpu=%q git=%s\n",
		runtime.Version(), runtime.NumCPU(), procs, gogc, cpuModel(), gitSHA())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit straight from .git, if the
// working directory is a repository root; the benchmark also runs from
// exported trees that are not.
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// emit checks the outcome against the declared metric list for this
// kind of run, prints one line per metric, then the result object the
// driver parses as the last line of standard output.
func emit(cfg *config, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	declared := make(map[string]bool, len(defs))
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		v, ok := out.m[d.name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", d.name)
		}
		fmt.Printf("%-40s %16.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = mv{v, d.unit}
	}
	for name := range out.m {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared for this kind of run", name)
		}
	}
	fmt.Printf("# attempted=%d failed=%d\n", out.attempted, out.failed)
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
