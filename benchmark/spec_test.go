package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json must declare exactly what the driver prints, within
// the contract's limits.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(doc.Paths, "benchmark") {
		t.Errorf("paths = %v, want benchmark among them", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", doc.RunSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var names []string
	for _, w := range doc.Workloads {
		name(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but the driver cannot run it", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads = %v, driver has %v", names, workloadNames)
	}

	match := func(kind string, declared []declaredMetric, defs []metricDef, bounded bool) {
		var got []metricDef
		for _, m := range declared {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the allowed set", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: end-to-end bound must be in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !slices.Equal(got, defs) {
			t.Errorf("%s metrics in BENCHMARK.json differ from the driver's:\n json %v\n code %v", kind, got, defs)
		}
	}
	match("end-to-end", doc.EndToEnd, endToEnd, true)
	match("per-layer", doc.PerLayer, perLayer, false)

	i := slices.IndexFunc(doc.EndToEnd, func(m declaredMetric) bool { return m.Name == "setup_s" })
	if i < 0 || doc.EndToEnd[i].Unit != "s" || doc.EndToEnd[i].Better != "lower" {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
}
