package baselines

import (
	"testing"
	"time"
)

// keysWithHome returns n distinct keys whose home cell in t is home.
func keysWithHome(t *Phase, home uint64, n int) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if t.home(k) == home {
			out = append(out, k)
		}
	}
	return out
}

// TestPhaseDeleteShiftsWithinSpan: a delete moves keys back only inside
// the segments it locked, and never escalates to every segment while its
// cluster fits there. Keys are chosen by home, so clusters form where the
// test wants them: a delete at home whose successors move back, a delete
// of a displaced key, and a cluster that wraps past the table's end. A
// segment outside every span stays locked by the test throughout, so an
// escalation blocks and the test reports it.
func TestPhaseDeleteShiftsWithinSpan(t *testing.T) {
	type step struct {
		del  uint64   // key to delete
		live []uint64 // keys left in the table after it
	}
	// a, b, c and d are inserted in that order.
	cases := []struct {
		name string
		home uint64 // shared home of a, b and c
		dOff uint64 // d's home is dOff cells past it
		del  func(a, b, c, d uint64) []step
	}{
		{
			// a, b, c at home..home+2; d at its own home, home+3, stays.
			name: "at home with movable successors",
			home: 5*phSegCells + 100, dOff: 3,
			del: func(a, b, c, d uint64) []step {
				return []step{{a, []uint64{b, c, d}}, {b, []uint64{c, d}}, {c, []uint64{d}}}
			},
		},
		{
			name: "displaced key",
			home: 5*phSegCells + 100, dOff: 3,
			del: func(a, b, c, d uint64) []step {
				return []step{{b, []uint64{a, c, d}}, {d, []uint64{a, c}}, {c, []uint64{a}}}
			},
		},
		{
			// a at the last cell, b, c, d at cells 0..2: the first
			// shift crosses the end, and d (home 0) follows c back.
			name: "wraparound at the table's end",
			home: ^uint64(0), dOff: 1, // the last cell, masked below
			del: func(a, b, c, d uint64) []step {
				return []step{{a, []uint64{b, c, d}}, {d, []uint64{b, c}}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewPhase(1 << 15) // 16 segments: a span of phDelSpan+1 is not all of them
			home := tc.home & tab.mask
			shared := keysWithHome(tab, home, 3)
			a, b, c := shared[0], shared[1], shared[2]
			d := keysWithHome(tab, (home+tc.dOff)&tab.mask, 1)[0]
			for _, k := range []uint64{a, b, c, d} {
				if !tab.Insert(k, k+7) {
					t.Fatalf("Insert(%d) failed", k)
				}
			}
			far := (home/phSegCells + uint64(len(tab.segs))/2) % uint64(len(tab.segs))
			tab.segs[far].mu.Lock()
			defer tab.segs[far].mu.Unlock()
			for _, s := range tc.del(a, b, c, d) {
				done := make(chan bool, 1)
				go func() { done <- tab.Delete(s.del) }()
				var ok bool
				select {
				case ok = <-done:
				case <-time.After(5 * time.Second):
					t.Errorf("Delete(%d) escalated to every segment", s.del)
					tab.segs[far].mu.Unlock()
					ok = <-done
					tab.segs[far].mu.Lock()
				}
				if !ok {
					t.Fatalf("Delete(%d) = false for a present key", s.del)
				}
				if _, ok := tab.Find(s.del); ok {
					t.Fatalf("deleted key %d still found", s.del)
				}
				for _, k := range s.live {
					if v, ok := tab.Find(k); !ok || v != k+7 {
						t.Fatalf("after Delete(%d): Find(%d) = %d, %v", s.del, k, v, ok)
					}
				}
				if n := tab.ApproxSize(); n != uint64(len(s.live)) {
					t.Fatalf("after Delete(%d): ApproxSize = %d, want %d", s.del, n, len(s.live))
				}
				cells := 0
				tab.Range(func(uint64, uint64) bool { cells++; return true })
				if cells != len(s.live) {
					t.Fatalf("after Delete(%d): Range sees %d cells, want %d", s.del, cells, len(s.live))
				}
			}
		})
	}
}
