// Package report defines the versioned, machine-readable benchmark
// report format that `growbench -json` and `growload -json` write for
// the §8 evaluation suite and the served scenarios.
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

// KindService marks records measured through the network service layer
// (growd + growload) rather than in-process: MOps is end-to-end served
// throughput and the latency percentiles are populated. Table-scenario
// records leave Kind empty.
const KindService = "service"

// Record is one measured data point — a lossless serialization of
// bench.Result. SampleSecs holds the unaveraged wall time of each
// repeat; Seconds and MOps are the harness's mean-of-repeats values.
// Service-kind records additionally carry client-observed latency
// percentiles in microseconds.
type Record struct {
	Kind       string    `json:"kind,omitempty"` // "" = table scenario, KindService = served
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

	// ExtraMap carries machine-readable auxiliary figures keyed by
	// name — growload records the server-side stats it scrapes over
	// the STATS opcode here (per-opcode exec p99s, migration counts
	// and pause percentiles, sweeper progress). Additive in schema v1:
	// absent in older files, ignored by older readers.
	ExtraMap map[string]float64 `json:"extra_map,omitempty"`

	// Latency percentiles and mean, microseconds (service records only).
	P50us  float64 `json:"p50_us,omitempty"`
	P95us  float64 `json:"p95_us,omitempty"`
	P99us  float64 `json:"p99_us,omitempty"`
	MeanUs float64 `json:"mean_us,omitempty"`
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
	return NewFromRecords(RunConfig{
		N:       cfg.N,
		Threads: cfg.Threads,
		Tables:  cfg.Tables,
		Skews:   cfg.Skews,
		WPs:     cfg.WPs,
		Repeat:  cfg.Repeat,
	}, FromResults(results), command)
}

// NewFromRecords assembles a report from already-built records — the
// entry point for producers that are not the §8 harness (growload's
// service scenarios). Schema versioning, environment capture, and
// timestamping stay in exactly one place.
func NewFromRecords(cfg RunConfig, recs []Record, command string) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Command:       command,
		Env:           CaptureEnv(),
		Config:        cfg,
		Results:       recs,
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
