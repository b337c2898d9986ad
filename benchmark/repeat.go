package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// result mirrors the object a run prints as its last line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runMany serves -workload all and -repeat K: every run is a fresh
// process of this same binary (so one run's heap, RSS and handle pools
// never reach the next), run k on seed+k. With K > 1 it prints, per
// metric, the median, the quartiles as Python's statistics.quantiles
// gives them, and their distance as a share of the median; an
// end-to-end metric whose spread passes a tenth or its declared bound
// is flagged. That table, taken on the seed commit, is where the bounds
// in BENCHMARK.json come from.
func runMany(cfg *config, repeat int) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	repeat = max(repeat, 1)
	bounds := declaredBounds()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	status := 0
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", name)
			return 2
		}
		vals := make(map[string][]float64)
		for k := 0; k < repeat; k++ {
			r, err := runChild(cfg, name, cfg.seed+uint64(k))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", name, cfg.seed+uint64(k), err)
				status = 1
				continue
			}
			if !r.Correct {
				status = 1
			}
			for m, v := range r.Metrics {
				vals[m] = append(vals[m], v.Value)
			}
		}
		fmt.Printf("## %s: %d runs, seeds %d..%d, trace=%t\n", name, repeat, cfg.seed, cfg.seed+uint64(repeat)-1, cfg.trace)
		fmt.Printf("%-40s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
		for _, d := range defs {
			q1, med, q3 := quartiles(vals[d.name])
			spread := ratio(q3-q1, med)
			flag := ""
			if b, ok := bounds[d.name]; ok && repeat > 1 && d.name != "setup_s" && (spread > 0.1 || spread > b) {
				flag = fmt.Sprintf("  <-- spread exceeds min(0.1, bound %.2f)", b)
			}
			fmt.Printf("%-40s %-6s %14.4f %14.4f %14.4f %7.2f%%%s\n", d.name, d.unit, med, q1, q3, 100*spread, flag)
		}
	}
	return status
}

// runChild runs one workload once in a child process and parses the
// last line it prints.
func runChild(cfg *config, workload string, seed uint64) (*result, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-growd", cfg.growdBin, "-out", cfg.outDir,
	}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("last output line is not a result: %w", jerr)
	}
	return &r, nil
}

// declaredBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory; without the file nothing is flagged.
func declaredBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
