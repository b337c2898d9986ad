// Package report defines the versioned, machine-readable benchmark
// report format that `growbench -json` writes for the §8 evaluation
// suite.
//
// A report captures everything needed to interpret a number months
// later: the exact run configuration, the environment it ran in (go
// version, GOMAXPROCS, CPU model, git SHA), the command that produced
// it, and per-scenario results carrying the raw per-repeat samples, so
// a reader can take the median instead of a mean that one noisy repeat
// can drag.
package report

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

// SchemaVersion is bumped on any incompatible change to the JSON
// layout, so a reader can tell a stale file from a current one.
const SchemaVersion = 1

// Report is the root of a BENCH_*.json file.
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	GeneratedAt   string      `json:"generated_at,omitempty"` // RFC 3339 UTC
	Command       string      `json:"command,omitempty"`      // how to regenerate this file
	Env           Environment `json:"env"`
	Config        RunConfig   `json:"config"`
	Results       []Record    `json:"results"`
}

// Environment records where a report was measured. Throughput numbers
// are only comparable within similar environments.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GitSHA     string `json:"git_sha,omitempty"`
	Hostname   string `json:"hostname,omitempty"`
}

// RunConfig is the serializable subset of bench.Config.
type RunConfig struct {
	N       uint64    `json:"n"`
	Threads []int     `json:"threads"`
	Tables  []string  `json:"tables,omitempty"` // explicit filter, empty = scenario defaults
	Skews   []float64 `json:"skews,omitempty"`
	WPs     []int     `json:"wps,omitempty"`
	Repeat  int       `json:"repeat"`
}

// Record is one measured data point — a lossless serialization of
// bench.Result. SampleSecs holds the unaveraged wall time of each
// repeat; Seconds and MOps are the harness's mean-of-repeats values.
type Record struct {
	Exp        string    `json:"exp"`
	Table      string    `json:"table"`
	Threads    int       `json:"threads"`
	Param      float64   `json:"param,omitempty"`
	ParamName  string    `json:"param_name,omitempty"` // skew | wp | size factor
	MOps       float64   `json:"mops"`
	Seconds    float64   `json:"seconds"`
	SampleSecs []float64 `json:"sample_secs,omitempty"`
	Bytes      uint64    `json:"bytes,omitempty"` // live backing memory (fig10)
	Extra      string    `json:"extra,omitempty"`
}

// paramName labels the Param axis per experiment family, so a report
// is self-describing without the harness's table headers.
func paramName(exp string) string {
	switch {
	case strings.HasPrefix(exp, "fig4"), strings.HasPrefix(exp, "fig5"):
		return "skew"
	case strings.HasPrefix(exp, "fig7"):
		return "wp"
	case strings.HasPrefix(exp, "fig10"):
		return "size factor"
	}
	return ""
}

// FromResults converts harness results into records.
func FromResults(results []bench.Result) []Record {
	recs := make([]Record, 0, len(results))
	for _, r := range results {
		recs = append(recs, Record{
			Exp:        r.Exp,
			Table:      r.Table,
			Threads:    r.Threads,
			Param:      r.Param,
			ParamName:  paramName(r.Exp),
			MOps:       r.MOps,
			Seconds:    r.Seconds,
			SampleSecs: append([]float64(nil), r.Samples...),
			Bytes:      r.Bytes,
			Extra:      r.Extra,
		})
	}
	return recs
}

// New assembles a report from a run: config snapshot, captured
// environment, current timestamp, and the converted results. command
// records how to regenerate the file.
func New(cfg *bench.Config, results []bench.Result, command string) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Command:       command,
		Env:           CaptureEnv(),
		Config: RunConfig{
			N:       cfg.N,
			Threads: cfg.Threads,
			Tables:  cfg.Tables,
			Skews:   cfg.Skews,
			WPs:     cfg.WPs,
			Repeat:  cfg.Repeat,
		},
		Results: FromResults(results),
	}
}

// Write serializes the report as indented JSON (stable field order,
// trailing newline) so committed reports diff cleanly.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Save writes the report to path, creating or truncating it.
func (r *Report) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
