package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentExact(t *testing.T) {
	c := newCounter()
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Counter.Value = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("Gauge.Value = %d, want 3", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("Gauge.Value after Set = %d, want -7", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "op", "get")
	b := r.Counter("ops_total", "op", "get")
	if a != b {
		t.Fatal("same series name must return the same counter")
	}
	c := r.Counter("ops_total", "op", "set")
	if a == c {
		t.Fatal("distinct labels must return distinct counters")
	}
	if h1, h2 := r.Hist("lat_nanos"), r.Hist("lat_nanos"); h1 != h2 {
		t.Fatal("same hist name must return the same hist")
	}
	if g1, g2 := r.Gauge("depth"), r.Gauge("depth"); g1 != g2 {
		t.Fatal("same gauge name must return the same gauge")
	}
}

func TestRegistryInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, tc := range []struct {
		name   string
		labels []string
	}{
		{"bad-name", nil},
		{"", nil},
		{"1leading", nil},
		{"ok", []string{"odd"}},
		{"ok", []string{"bad-label", "v"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q, %v) did not panic", tc.name, tc.labels)
				}
			}()
			r.Counter(tc.name, tc.labels...)
		}()
	}
}

func TestRegistrySnapshotAndSub(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(10)
	r.Gauge("depth").Set(4)
	r.Hist("lat_nanos").Observe(100)

	before := r.Snapshot()
	r.Counter("ops_total").Add(5)
	r.Gauge("depth").Set(9)
	r.Hist("lat_nanos").Observe(200)
	r.Hist("lat_nanos").Observe(300)
	after := r.Snapshot()

	win := after.Sub(before)
	if got := win.Counter("ops_total"); got != 5 {
		t.Errorf("window counter = %d, want 5", got)
	}
	if got := win.Gauge("depth"); got != 9 {
		t.Errorf("window gauge = %d, want current value 9", got)
	}
	if h := win.Hist("lat_nanos"); h.Count != 2 || h.Sum != 500 {
		t.Errorf("window hist = {Count:%d Sum:%d}, want {2 500}", h.Count, h.Sum)
	}
	if got := win.Counter("absent"); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
}

func TestSnapshotSubSaturates(t *testing.T) {
	cur := Snapshot{Counters: map[string]uint64{"c": 3}}
	prev := Snapshot{Counters: map[string]uint64{"c": 10}}
	if got := cur.Sub(prev).Counter("c"); got != 0 {
		t.Fatalf("saturating sub = %d, want 0", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("growt_ops_total", "op", "get").Add(7)
	r.Counter("growt_ops_total", "op", "set").Add(3)
	r.Gauge("growt_conns").Set(2)
	h := r.Hist("growt_lat_nanos", "op", "get")
	h.Observe(3) // bucket le=3
	h.Observe(3)
	h.Observe(100) // bucket le=127
	// 64 and 100 sit in different sub-buckets of the octave [64, 128);
	// the exposition folds them into the one log2 line le=127.
	hs := r.Hist("growt_lat_nanos", "op", "set")
	hs.Observe(64)
	hs.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE growt_ops_total counter\n",
		`growt_ops_total{op="get"} 7` + "\n",
		`growt_ops_total{op="set"} 3` + "\n",
		"# TYPE growt_conns gauge\n",
		"growt_conns 2\n",
		"# TYPE growt_lat_nanos histogram\n",
		`growt_lat_nanos_bucket{op="get",le="3"} 2` + "\n",
		`growt_lat_nanos_bucket{op="get",le="127"} 3` + "\n",
		`growt_lat_nanos_bucket{op="get",le="+Inf"} 3` + "\n",
		`growt_lat_nanos_sum{op="get"} 106` + "\n",
		`growt_lat_nanos_count{op="get"} 3` + "\n",
		`growt_lat_nanos_bucket{op="set",le="63"} 0` + "\n",
		`growt_lat_nanos_bucket{op="set",le="127"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Only log2 bounds: le 0, 1, 3, …, 127 and +Inf.
	if n := strings.Count(out, `growt_lat_nanos_bucket{op="set",`); n != 9 {
		t.Errorf("set series has %d bucket lines, want 9 (le=0..127 and +Inf)", n)
	}
	// One TYPE header per family, even with several series.
	if n := strings.Count(out, "# TYPE growt_ops_total counter"); n != 1 {
		t.Errorf("counter family declared %d times, want 1", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "k", "a\"b\\c\nd").Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `c_total{k="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped series %q missing in:\n%s", want, sb.String())
	}
}

func TestAllocationFreeHotPaths(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Hist("h_nanos")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Hist.Observe allocates %.1f per op, want 0", n)
	}
}
