package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): `# TYPE` headers per family,
// series sorted by name, histograms as cumulative `_bucket{le=...}`
// series plus `_sum` and `_count`. Exposition is a cold path — it
// allocates freely; only the record side of obs is budgeted.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()

	lastFamily := ""
	for _, name := range sortedKeys(s.Counters) {
		family, _ := familyOf(name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}

	lastFamily = ""
	for _, name := range sortedKeys(s.Gauges) {
		family, _ := familyOf(name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}

	lastFamily = ""
	for _, name := range sortedKeys(s.Hists) {
		family, labels := familyOf(name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		if err := writePromHist(w, family, labels, s.Hists[name]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHist emits one histogram series: cumulative buckets up to
// the highest occupied one, the mandatory +Inf bucket, then sum and
// count. The sub-buckets of each power of two are summed into one line,
// so le bounds stay the log2 bounds 0 and 2^k − 1 in the metric's own
// unit (names carry units, e.g. _nanos) and /metrics does not grow with
// the histogram's resolution.
func writePromHist(w io.Writer, family, labels string, h HistSnapshot) error {
	var octaves [65]uint64
	top := -1
	for i, c := range h.Buckets {
		if c > 0 {
			k := bits.Len64(bucketUpper(i))
			octaves[k] += c
			top = k
		}
	}
	var cum uint64
	for k := 0; k <= top; k++ {
		cum += octaves[k]
		le := strconv.FormatUint(1<<k-1, 10) // wraps to MaxUint64 at k = 64
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, withLE(labels, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, withLE(labels, "+Inf"), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", family, labels, h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, h.Count)
	return err
}

// withLE splices an le label into a rendered label block:
// "" + 42 → {le="42"}; {op="get"} + 42 → {op="get",le="42"}.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
