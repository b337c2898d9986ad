// Package obs is the observability core: allocation-free,
// dependency-free metric primitives safe for //growt:hotpath code, plus
// a process-wide registry and two exposition encodings (Prometheus text
// and mergeable JSON snapshots).
//
// The paper's §8 evaluation lives on tail behavior under contention —
// and so do the optimizations queued behind it (amortized per-bucket
// migration, hot-path overhead hunts). Measuring a tail from inside the
// server requires instruments whose own cost is invisible next to the
// operations they observe:
//
//   - Counter is sharded across cache-line-padded slots (internal/pad),
//     so concurrent increments from many goroutines do not fight over
//     one line; Add is one padded atomic add.
//   - Gauge is a single padded int64.
//   - Hist is a lock-free histogram with 16 linear sub-buckets per
//     power of two (quantiles within 1/16 above exact): Observe
//     performs three atomic adds and a bounded max-CAS, no allocation,
//     no lock.
//     Snapshots are plain value structs that merge and subtract, so a
//     load generator can scrape twice and extract the quantiles of
//     exactly its measured window.
//
// Registration (Registry.Counter/Gauge/Hist) is get-or-create by
// rendered name and interns nothing per call afterwards: instrument
// construction happens once at subsystem init, and the returned pointer
// is what hot code uses. The package depends only on the standard
// library and internal/pad, so every layer — core tables, cache,
// server — can import it without cycles.
//
// Exposition is dual-surface: Registry.WritePrometheus renders the
// classic text format (growd serves it at /metrics on its -debug
// listener), and Registry.Snapshot returns a JSON-marshalable snapshot
// (growd serves it over the wire as the STATS opcode, so a client can
// scrape server-side figures through the same pipelined connection it
// measures with). See docs/OBSERVABILITY.md for the metric inventory.
package obs

import (
	"sort"
	"sync"
)

// Registry is a named collection of metrics. The zero value is not
// usable — build with NewRegistry. All methods are safe for concurrent
// use; registration takes a mutex, reads of registered instruments do
// not.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Hist
	collectors []func()
}

// Default is the process-wide registry. Library subsystems (core
// migration metrics, cache counters) register here; growd exposes it
// at /metrics and over the STATS opcode. Tests that need isolated
// counts build their own Registry instead.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the counter registered under name (get-or-create).
// labels are alternating key/value pairs baked into the series name:
// Counter("ops_total", "op", "get") is the series ops_total{op="get"}.
// Invalid names and odd label lists panic — registration runs at
// subsystem init, where a loud failure beats a silently mangled series.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	full := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[full]
	if !ok {
		c = newCounter()
		r.counters[full] = c
	}
	return c
}

// Gauge returns the gauge registered under name (get-or-create).
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	full := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[full]
	if !ok {
		g = &Gauge{}
		r.gauges[full] = g
	}
	return g
}

// Hist returns the histogram registered under name (get-or-create).
func (r *Registry) Hist(name string, labels ...string) *Hist {
	full := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[full]
	if !ok {
		h = &Hist{}
		r.hists[full] = h
	}
	return h
}

// RegisterCollector adds a hook that runs at the start of every
// Snapshot (and therefore every Prometheus render, which snapshots
// internally). Collectors refresh pull-style sources — the
// runtime/metrics bridge samples GC and scheduler state this way —
// by setting gauges on the registry; they run outside the registry
// lock, so they may call Gauge/Counter/Hist freely.
func (r *Registry) RegisterCollector(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

// Snapshot captures every registered metric at one point in time. The
// maps are keyed by full series name (labels included). Snapshots are
// plain values: marshal them, merge them, subtract them.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	collectors := make([]func(), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time capture of a Registry, shaped for JSON
// (the STATS opcode body). Counter and histogram contents are
// monotone, so the difference of two snapshots of the same registry is
// the activity between them — Sub gives a load generator the exact
// histogram of its measured window.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Sub returns the activity between prev and s: counters and histogram
// contents are subtracted (saturating at zero, so a restarted server
// yields zeros, not garbage); gauges keep s's current value — a gauge
// has no meaningful delta.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = satSub(v, prev.Counters[name])
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Hists {
		d.Hists[name] = h.Sub(prev.Hists[name])
	}
	return d
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Hist returns the named histogram's snapshot (zero when absent).
func (s Snapshot) Hist(name string) HistSnapshot { return s.Hists[name] }

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// seriesName renders name plus alternating label key/value pairs into
// the canonical series string: name{k1="v1",k2="v2"}. Labels are
// rendered in the given order; callers use a fixed order per family so
// equal series render equal strings.
func seriesName(name string, labels []string) string {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + name)
	}
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list for " + name)
	}
	out := name + "{"
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) {
			panic("obs: invalid label name " + labels[i] + " for " + name)
		}
		if i > 0 {
			out += ","
		}
		out += labels[i] + `="` + escapeLabel(labels[i+1]) + `"`
	}
	return out + "}"
}

// familyOf splits a full series name into its family (the bare metric
// name) and the rendered label block ("" when unlabeled).
func familyOf(series string) (family, labelBlock string) {
	for i := 0; i < len(series); i++ {
		if series[i] == '{' {
			return series[:i], series[i:]
		}
	}
	return series, ""
}

// validMetricName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName enforces [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// sortedKeys returns m's keys in sorted order (stable exposition).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
