package cache

// Tests pinning the cursor sweeper's complexity and safety properties:
// a full expiry cycle visits each stored entry about once (the resumable
// cursor replaced an O(n²/batch) prefix re-walk), and the conditional
// delete it fires remains item-pointer-CAS-safe when the walk's snapshot
// goes stale behind a concurrent write (the PR 5 regression, re-run
// through the cursor path).

import (
	"testing"
	"time"

	growt "repro"
)

// TestSweepFullCycleVisitsLinear expires n entries and drives SweepOnce
// in small batches until the cycle collects them all. The visited count
// must stay linear in n: the pre-cursor sweeper re-walked the table
// prefix every batch, costing ~n²/(2·batch) visits — at this n and
// batch that would be ~20n, far past the 3n ceiling asserted here.
func TestSweepFullCycleVisitsLinear(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	const (
		n     = 4000
		batch = 100
	)
	for i := uint64(1); i <= n; i++ {
		c.SetTTL(i, "v", time.Second)
	}
	clk.advance(2 * time.Second)

	removed := 0
	for ticks := 0; removed < n; ticks++ {
		if ticks > 10*n/batch {
			t.Fatalf("sweeper stalled: %d of %d removed after %d ticks", removed, n, ticks)
		}
		removed += c.SweepOnce(batch)
	}
	st := c.Stats()
	if st.Expired != n {
		t.Fatalf("expired = %d, want %d", st.Expired, n)
	}
	if st.SweepVisited > 3*n {
		t.Fatalf("full cycle visited %d entries for n=%d: super-linear (O(n²/batch) regression?)",
			st.SweepVisited, n)
	}
	if st.SweepRemoved != n {
		t.Fatalf("sweep removed = %d, want %d", st.SweepRemoved, n)
	}
}

// TestSweepPerTickStats checks the per-tick gauges against one tick
// over 100 expired entries, 50 live ones and 100 more expired ones: the
// front pass collects the first 100 and stops at its 30th live entry,
// then the cursor pass visits the first 30 live entries from the start,
// and the expired entries behind the live front wait for later ticks.
func TestSweepPerTickStats(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	for i := uint64(1); i <= 250; i++ {
		ttl := time.Second
		if i > 100 && i <= 150 {
			ttl = time.Hour
		}
		c.SetTTL(i, "v", ttl)
	}
	clk.advance(2 * time.Second)

	c.SweepOnce(30)
	st := c.Stats()
	if st.LastSweepVisited != 100+30+30 {
		t.Fatalf("last tick visited %d, want 160 (100 expired and 30 live at the front, 30 behind the cursor)", st.LastSweepVisited)
	}
	if st.LastSweepRemoved != 100 {
		t.Fatalf("last tick removed %d, want the 100 expired at the front", st.LastSweepRemoved)
	}
	if st.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want 1", st.Sweeps)
	}
	if n := c.storedLen(); n != 150 {
		t.Fatalf("stored entries after one tick = %d, want 150", n)
	}
}

// TestStaleSweepCADThroughCursor re-runs the stalled-sweeper CAS
// regression with the item pointer obtained the way the cursor sweeper
// obtains it — from a RangeFrom callback. A sweeper that sampled the
// entry via the cursor walk, stalled, and fires its conditional delete
// after a writer replaced the key must hit nothing.
func TestStaleSweepCADThroughCursor(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	c.SetTTL(1, "old", 10*time.Millisecond)
	var stale *item[string]
	c.m.RangeFrom(growt.Cursor{}, func(k uint64, it *item[string]) bool {
		stale = it
		return false // the stalled sweeper: sampled, then parked
	})
	if stale == nil {
		t.Fatal("setup: cursor walk saw no entry")
	}
	clk.advance(time.Hour)  // "old" is long expired...
	c.SetTTL(1, "fresh", 0) // ...and a writer replaced it meanwhile
	if c.m.CompareAndDelete(1, stale) {
		t.Fatal("stale cursor-walk CAD removed a fresh entry")
	}
	if v, ok := c.Get(1); !ok || v != "fresh" {
		t.Fatalf("fresh entry disturbed: %q, %v", v, ok)
	}

	// The sweeper's own path over the same state: a full sweep now must
	// keep the fresh immortal entry.
	for c.SweepOnce(1000) > 0 {
	}
	if v, ok := c.Get(1); !ok || v != "fresh" {
		t.Fatalf("sweep ate the fresh entry: %q, %v", v, ok)
	}
}

// TestSessionMirrorsCache: the pinned-handle Session supports the whole
// cache surface with identical semantics, and its ops cost zero pool
// borrows.
func TestSessionMirrorsCache(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	s := c.NewSession()
	defer s.Close()
	base := c.PoolBorrows()

	s.SetTTL(1, "a", time.Minute)
	if v, ok := s.Get(1); !ok || v != "a" {
		t.Fatalf("session get = %q, %v", v, ok)
	}
	if swapped, _ := s.CompareAndSwap(1, "a", "b"); !swapped {
		t.Fatal("session CAS refused a match")
	}
	if d, ok := s.TTL(1); !ok || d != time.Minute {
		t.Fatalf("session ttl = %v, %v", d, ok)
	}
	if !s.Expire(1, time.Hour) {
		t.Fatal("session expire refused a live key")
	}
	if deleted, found := s.CompareAndDelete(1, "x"); deleted || !found {
		t.Fatalf("session mismatched CAD = %v, %v", deleted, found)
	}
	if deleted, _ := s.CompareAndDelete(1, "b"); !deleted {
		t.Fatal("session matched CAD refused")
	}
	s.Set(2, "imm")
	if !s.Delete(2) {
		t.Fatal("session delete refused")
	}
	if !s.Compute(3, "z", func(cur, d string) string { return cur + d }) {
		t.Fatal("session compute on absent key did not insert")
	}
	_ = s.Len()

	if got := c.PoolBorrows() - base; got != 0 {
		t.Fatalf("session ops borrowed %d pooled handles; want 0", got)
	}

	// Expiry semantics through the session match the cache's.
	s.SetTTL(4, "dying", time.Second)
	clk.advance(2 * time.Second)
	if _, ok := s.Get(4); ok {
		t.Fatal("expired entry observable through session")
	}

	s.Close() // idempotent with the deferred Close
	defer func() {
		if recover() == nil {
			t.Fatal("use of closed session did not panic")
		}
	}()
	s.Get(1)
}
