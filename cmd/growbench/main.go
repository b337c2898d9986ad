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
// -json writes a machine-readable report (internal/bench/report) next
// to the printed tables:
//
//	growbench -exp fig2a -json out.json
//
// The gate that decides whether a change is a regression is the
// repository benchmark (benchmark/, BENCHMARK.json), not this tool.
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
		exp     = flag.String("exp", "", "comma-separated experiment ids (fig2a..fig11b, table1, all)")
		n       = flag.Uint64("n", 1<<20, "operations per measurement (paper: 1e8)")
		threads = flag.String("threads", "", "comma-separated goroutine counts")
		tabs    = flag.String("tables", "", "comma-separated table filter")
		skews   = flag.String("s", "", "comma-separated Zipf exponents")
		wps     = flag.String("wp", "", "comma-separated write percentages")
		repeat  = flag.Int("repeat", 3, "runs per data point (the tables print the mean; raw samples kept for -json)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut = flag.String("json", "", "write results as a versioned BENCH report to this path")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
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
	if *jsonOut != "" {
		rep := report.New(cfg, results, "growbench "+strings.Join(os.Args[1:], " "))
		if err := rep.Save(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "growbench: wrote %d records to %s\n", len(rep.Results), *jsonOut)
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
