// Command growbench regenerates the tables and figures of the paper's
// evaluation (§8). Each experiment id corresponds to one figure/table
// (-list prints them; README's paper map says where each section lives).
//
// Usage:
//
//	growbench -exp fig2a                  # one experiment
//	growbench -exp fig2a,fig3a,fig7a     # a comma-separated list
//	growbench -exp all -n 1000000        # the whole evaluation
//	growbench -exp fig4a -s 0.75,1.25    # restrict the skew sweep
//	growbench -exp fig2b -tables uaGrow,usGrow -threads 1,4,8
//	growbench -exp table1                # the functionality matrix
//
// Machine-readable reports and the perf-regression gate:
//
//	growbench -exp fig2a -json out.json              # write a BENCH report
//	growbench -compare out.json -exp fig2a           # re-run, gate on regressions
//	growbench -compare base.json -with cur.json      # compare two files, no run
//
// -compare exits with status 3 when any matched data point is slower
// than the baseline beyond -tolerance (median-of-repeats on both
// sides). -slowdown scales measured times and exists to validate the
// gate end to end: `-compare base.json -exp fig2a -slowdown 2` must
// fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/bench/report"
	"repro/internal/tables"

	_ "repro/internal/baselines" // register all competitor tables
	_ "repro/internal/core"      // register the paper's tables
)

func main() {
	var (
		exp       = flag.String("exp", "", "comma-separated experiment ids (fig2a..fig11b, table1, all)")
		n         = flag.Uint64("n", 1<<20, "operations per measurement (paper: 1e8)")
		threads   = flag.String("threads", "", "comma-separated goroutine counts")
		tabs      = flag.String("tables", "", "comma-separated table filter")
		skews     = flag.String("s", "", "comma-separated Zipf exponents")
		wps       = flag.String("wp", "", "comma-separated write percentages")
		repeat    = flag.Int("repeat", 3, "runs per data point (comparisons use the median; raw samples kept for -json)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut   = flag.String("json", "", "write results as a versioned BENCH report to this path")
		compareTo = flag.String("compare", "", "baseline BENCH_*.json to gate against (exit 3 on regression)")
		with      = flag.String("with", "", "with -compare: gate this report file instead of running experiments")
		tolerance = flag.Float64("tolerance", report.DefaultTolerance,
			"fractional MOps drop allowed before -compare fails")
		slowdown = flag.Float64("slowdown", 1,
			"debug: scale measured seconds by this factor (validates the -compare gate)")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
		return
	}

	// File-vs-file mode: no experiments run at all.
	if *with != "" {
		if *compareTo == "" {
			fatal(fmt.Errorf("-with requires -compare <baseline.json>"))
		}
		if *exp != "" || *jsonOut != "" {
			fatal(fmt.Errorf("-with compares two existing reports; -exp/-json do not apply"))
		}
		gate(*compareTo, *with, *tolerance)
		return
	}

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "growbench: -exp is required (try -list)")
		os.Exit(2)
	}
	// Validate every experiment id up front, before any runner allocates
	// its key arrays: a typo in the second id of a list must not cost a
	// full key-generation pass on the first.
	ids := parseExps(*exp)

	cfg := &bench.Config{N: *n, Repeat: *repeat, Out: os.Stdout}
	var err error
	if cfg.Threads, err = parseInts(*threads); err != nil {
		fatal(err)
	}
	if cfg.Skews, err = parseFloats(*skews); err != nil {
		fatal(err)
	}
	if cfg.WPs, err = parseInts(*wps); err != nil {
		fatal(err)
	}
	if *tabs != "" {
		cfg.Tables = strings.Split(*tabs, ",")
		// Fail on typos now, with the registered-name list, rather than
		// mid-run from deep inside an experiment.
		for _, name := range cfg.Tables {
			if _, ok := tables.Lookup(name); !ok {
				fatal(fmt.Errorf("unknown table %q (registered: %s)",
					name, strings.Join(tables.Names(), ", ")))
			}
		}
	}

	var results []bench.Result
	for _, id := range ids {
		results = append(results, bench.Experiments[id](cfg)...)
	}
	if *slowdown != 1 {
		if *slowdown <= 0 {
			fatal(fmt.Errorf("-slowdown must be positive"))
		}
		applySlowdown(results, *slowdown)
	}

	var rep *report.Report
	if *jsonOut != "" || *compareTo != "" {
		rep = report.New(cfg, results, "growbench "+strings.Join(os.Args[1:], " "))
	}
	if *jsonOut != "" {
		if err := rep.Save(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "growbench: wrote %d records to %s\n", len(rep.Results), *jsonOut)
	}
	if *compareTo != "" {
		base, err := report.Load(*compareTo)
		if err != nil {
			fatal(err)
		}
		exitCompare(base, rep, *tolerance)
	}
}

// parseExps splits and validates the -exp list; "all" expands to the
// canonical order.
func parseExps(s string) []string {
	var ids []string
	for _, part := range strings.Split(s, ",") {
		id := strings.TrimSpace(part)
		if id == "" {
			continue
		}
		if id == "all" {
			ids = append(ids, bench.Order...)
			continue
		}
		if _, ok := bench.Experiments[id]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", id))
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		fatal(fmt.Errorf("-exp lists no experiments"))
	}
	return ids
}

// applySlowdown scales every measurement as if the run were factor×
// slower, including the raw samples, so a seeded regression flows
// through the median-based comparator exactly like a real one.
func applySlowdown(results []bench.Result, factor float64) {
	for i := range results {
		results[i].Seconds *= factor
		results[i].MOps /= factor
		for j := range results[i].Samples {
			results[i].Samples[j] *= factor
		}
	}
}

// gate compares two report files and exits with the gate status.
func gate(basePath, curPath string, tolerance float64) {
	base, err := report.Load(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := report.Load(curPath)
	if err != nil {
		fatal(err)
	}
	exitCompare(base, cur, tolerance)
}

// exitCompare prints the verdict table and exits 3 if the gate fails.
func exitCompare(base, cur *report.Report, tolerance float64) {
	cmp := report.Compare(base, cur, tolerance)
	fmt.Printf("\n== compare against baseline (%s) ==\n", base.Command)
	cmp.Format(os.Stdout)
	switch {
	case cmp.Matched == 0:
		fmt.Fprintln(os.Stderr, "growbench: no data points matched the baseline — nothing was gated")
		os.Exit(3)
	case !cmp.OK():
		fmt.Fprintf(os.Stderr, "growbench: %d regression(s) beyond ±%.0f%% tolerance\n",
			cmp.Regressions, cmp.Tolerance*100)
		os.Exit(3)
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "growbench:", err)
	os.Exit(1)
}
