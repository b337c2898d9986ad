package bench

import (
	"strings"
	"testing"
	"time"

	_ "repro/internal/baselines"
	_ "repro/internal/core"
)

// small returns a config sized for test runtime.
func small() *Config {
	c := &Config{
		N:       1 << 14,
		Threads: []int{2},
		Skews:   []float64{0.5, 1.25},
		WPs:     []int{30},
		Repeat:  1,
		Tables:  []string{"uaGrow", "usGrow", "mutexmap"},
	}
	c.Defaults()
	return c
}

// TestEveryExperimentRuns executes each experiment end to end at a tiny
// scale — a smoke test that the harness regenerates every figure.
func TestEveryExperimentRuns(t *testing.T) {
	for _, id := range Order {
		id := id
		t.Run(id, func(t *testing.T) {
			cfg := small()
			var sb strings.Builder
			cfg.Out = &sb
			results := Experiments[id](cfg)
			if id == "table1" {
				if !strings.Contains(sb.String(), "uaGrow") {
					t.Fatal("table1 output missing rows")
				}
				return
			}
			if len(results) == 0 {
				t.Fatal("no results")
			}
			for _, r := range results {
				if r.Seconds <= 0 || r.MOps <= 0 {
					t.Fatalf("%s %s: degenerate measurement %+v", id, r.Table, r)
				}
				// Every data point must carry its raw repeats so BENCH
				// reports serialize losslessly.
				if len(r.Samples) != cfg.Repeat {
					t.Fatalf("%s %s: %d samples, want Repeat=%d", id, r.Table, len(r.Samples), cfg.Repeat)
				}
				for _, s := range r.Samples {
					if s <= 0 {
						t.Fatalf("%s %s: non-positive sample %v", id, r.Table, r.Samples)
					}
				}
			}
		})
	}
}

// TestExperimentsCoverPaper: every figure and table of §8 has a runner,
// except fig9a/fig9b: §6's hardware transactions are not reproducible in
// Go (no RTM intrinsics); the emulation that stood in for them measured
// slower than the CAS path it was meant to beat and was deleted — the
// measurement is recorded in README's paper map (§6) and BENCH_22.json.
func TestExperimentsCoverPaper(t *testing.T) {
	want := []string{"table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a",
		"fig4b", "fig5a", "fig5b", "fig6", "fig7a", "fig7b", "fig8a",
		"fig8b", "fig10", "fig11a", "fig11b",
		"sweep"} // the cache sweeper cycle rides along with the §8 figures
	for _, id := range want {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(Order) != len(want) {
		t.Fatalf("Order has %d entries, want %d", len(Order), len(want))
	}
}

func TestUniformKeysDeterministic(t *testing.T) {
	a := UniformKeys(1000, 7)
	b := UniformKeys(1000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("keys not deterministic")
		}
		if a[i] == 0 {
			t.Fatal("zero key generated")
		}
	}
	c := UniformKeys(1000, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds produced same keys")
	}
}

func TestZipfKeysRange(t *testing.T) {
	keys := ZipfKeys(10000, 500, 1.1, 3)
	for _, k := range keys {
		if k < 1 || k > 500 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestMeasureKeepsSamples(t *testing.T) {
	durs := []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	i := 0
	avg, samples := measure(len(durs), func() time.Duration {
		d := durs[i]
		i++
		return d
	})
	if avg != 2 {
		t.Fatalf("avg %v, want 2", avg)
	}
	want := []float64{1, 3, 2}
	for j := range want {
		if samples[j] != want[j] {
			t.Fatalf("samples %v, want %v (order preserved, unaveraged)", samples, want)
		}
	}
}

func TestRunDealsAllOps(t *testing.T) {
	var hit = make([]uint64, 3*BlockOps+17)
	run(4, uint64(len(hit)), func(w int, lo, hi uint64) {
		for i := lo; i < hi; i++ {
			hit[i]++
		}
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("op %d executed %d times", i, h)
		}
	}
}
