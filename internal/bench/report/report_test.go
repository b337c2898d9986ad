package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
)

func sampleReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   "2026-07-29T12:00:00Z",
		Command:       "growbench -exp fig2a -json out.json",
		Env: Environment{
			GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
			GOMAXPROCS: 8, NumCPU: 8, CPUModel: "Test CPU", GitSHA: "deadbeef",
		},
		Config: RunConfig{N: 1 << 16, Threads: []int{2, 4}, Repeat: 3,
			Tables: []string{"uaGrow"}, Skews: []float64{0.5}, WPs: []int{30}},
		Results: []Record{
			{Exp: "fig2a insert (pre-sized)", Table: "uaGrow", Threads: 2,
				MOps: 50, Seconds: 0.0013, SampleSecs: []float64{0.0012, 0.0013, 0.0014},
				Extra: "speedup 2.00x"},
			{Exp: "fig4a update (contention)", Table: "uaGrow", Threads: 4, Param: 1.25,
				ParamName: "skew", MOps: 40, Seconds: 0.0016,
				SampleSecs: []float64{0.0016, 0.0016, 0.0016}},
		},
	}
}

// load reads back what Save wrote.
func load(t *testing.T, path string) *Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestRoundTrip: a saved report must read back exactly.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	want := sampleReport()
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got := load(t, path)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestFromResults: bench results serialize losslessly, including the
// raw repeat samples and the param axis name.
func TestFromResults(t *testing.T) {
	in := []bench.Result{{Exp: "fig7a mixed ops (pre-sized)", Table: "usGrow", Threads: 4,
		Param: 30, MOps: 12, Seconds: 0.005, Samples: []float64{0.004, 0.005, 0.006},
		Bytes: 1 << 20, Extra: "x"}}
	recs := FromResults(in)
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	r := recs[0]
	if r.ParamName != "wp" {
		t.Errorf("fig7a param name = %q, want wp", r.ParamName)
	}
	if !reflect.DeepEqual(r.SampleSecs, in[0].Samples) {
		t.Errorf("samples not preserved: %v", r.SampleSecs)
	}
	if r.Exp != in[0].Exp || r.Table != in[0].Table || r.Threads != in[0].Threads ||
		r.Param != in[0].Param || r.MOps != in[0].MOps || r.Seconds != in[0].Seconds ||
		r.Bytes != in[0].Bytes || r.Extra != in[0].Extra {
		t.Errorf("lossy conversion: %+v", r)
	}
}
