package cache

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	growt "repro"
	"repro/internal/obs"
)

// fakeClock is the injectable deterministic clock: tests advance it and
// expiry verdicts follow with no sleeping and no timing tolerance.
type fakeClock struct{ t atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.t.Store(1) // nonzero so deadlines never collide with "immortal"
	return c
}
func (c *fakeClock) now() int64              { return c.t.Load() }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

func newTestCache[K comparable, V any](clk *fakeClock, opts ...growt.Option) *Cache[K, V] {
	// Sweeping is driven explicitly via SweepOnce: a background ticker
	// reading a fake clock would only add noise.
	opts = append(opts, growt.WithSweepInterval(-1))
	return newCache[K, V](clk.now, opts...)
}

// storedLen counts stored entries exactly — including expired ones not
// yet collected — via the map's Range. Len/ApproxSize on the word key
// route is a buffered per-handle estimate (±flushSpan per handle, §5.2)
// and cannot anchor small-n assertions.
func (c *Cache[K, V]) storedLen() int {
	n := 0
	c.m.Range(func(K, *item[V]) bool { n++; return true })
	return n
}

// evKey is a named integer type: named types fall off the built-in
// word-codec fast path onto the generic route, whose size counter is
// exact — the same route the server's named-string Key takes. Tests
// that assert on sizes use it.
type evKey uint64

// TestExpiredNeverObservable is the lazy-path regression test: once the
// clock passes an entry's deadline, no Get may ever return it again —
// and reading it collects it.
func TestExpiredNeverObservable(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	c.SetTTL(1, "short", 100*time.Millisecond)
	c.SetTTL(2, "long", time.Hour)
	c.SetTTL(3, "immortal", 0)

	if v, ok := c.Get(1); !ok || v != "short" {
		t.Fatalf("pre-deadline get = %q, %v", v, ok)
	}
	clk.advance(100 * time.Millisecond) // exactly the deadline: expired
	if v, ok := c.Get(1); ok {
		t.Fatalf("expired entry observable: %q", v)
	}
	if v, ok := c.Get(2); !ok || v != "long" {
		t.Fatalf("unexpired entry lost: %q, %v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != "immortal" {
		t.Fatalf("immortal entry lost: %q, %v", v, ok)
	}
	// The expired read collected the entry (lazy expiry removes, not
	// just hides).
	if n := c.storedLen(); n != 2 {
		t.Fatalf("expired entry still stored: len %d", n)
	}
	st := c.Stats()
	if st.Expired != 1 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSweeperCollects drives the sweeper deterministically: a tick
// visits at most frontReach batches at the front plus one batch behind
// its cursor, the front pass collects every expired entry within its
// reach, and successive ticks collect them all and no live entry.
func TestSweeperCollects(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	const n, batch = 1000, 30
	for i := uint64(0); i < n; i++ {
		c.SetTTL(i, "v", time.Second)
	}
	c.SetTTL(n, "survivor", time.Hour)
	clk.advance(2 * time.Second)

	total := 0
	for tick := 0; total < n; tick++ {
		if tick == 10 {
			t.Fatalf("sweeper collected %d of %d expired entries in %d ticks", total, n, tick)
		}
		removed := c.SweepOnce(batch)
		if v := c.Stats().LastSweepVisited; v > (frontReach+1)*batch {
			t.Fatalf("tick %d visited %d entries, more than %d", tick, v, (frontReach+1)*batch)
		}
		if tick == 0 && removed < frontReach*batch {
			t.Fatalf("first tick removed %d; its front pass reaches %d expired entries", removed, frontReach*batch)
		}
		total += removed
	}
	if total != n {
		t.Fatalf("sweeper collected %d of %d expired entries", total, n)
	}
	if v, ok := c.Get(n); !ok || v != "survivor" {
		t.Fatalf("sweeper ate a live entry: %q, %v", v, ok)
	}
	if n := c.storedLen(); n != 1 {
		t.Fatalf("stored entries after sweep = %d, want 1", n)
	}
}

// TestSweepClearsExpiredFront: a never-read, unbudgeted cache that takes
// ten batches of new keys per tick under one TTL, swept once per tick,
// stores no more than the keys written within one TTL plus one tick's
// writes. A sweeper that examines one batch per tick falls nine batches
// further behind every tick, and the stragglers pin their arena pages.
func TestSweepClearsExpiredFront(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	const (
		batch    = 64
		perTick  = 10 * batch
		tick     = time.Second
		ttlTicks = 4
	)
	k := uint64(0)
	for i := 0; i < 40; i++ {
		for j := 0; j < perTick; j++ {
			c.SetTTL(k, "v", ttlTicks*tick)
			k++
		}
		clk.advance(tick)
		c.SweepOnce(batch)
		if n := c.storedLen(); n > (ttlTicks+1)*perTick {
			t.Fatalf("tick %d: %d entries stored, more than the %d written within one TTL and a tick",
				i, n, (ttlTicks+1)*perTick)
		}
	}
}

// TestSweepBehindImmortalFront: the front pass stops at a front of
// immortal entries, so what expires behind it is the cursor pass's to
// collect — all of it, in a linear number of visits.
func TestSweepBehindImmortalFront(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	const n, batch = 1000, 100
	for i := uint64(0); i < 2*batch; i++ {
		c.SetTTL(i, "immortal", 0)
	}
	for i := uint64(0); i < n; i++ {
		c.SetTTL(1<<20+i, "v", time.Second)
	}
	clk.advance(2 * time.Second)

	removed := 0
	for ticks := 0; removed < n; ticks++ {
		if ticks > 10*n/batch {
			t.Fatalf("sweeper stalled behind the immortal front: %d of %d removed after %d ticks", removed, n, ticks)
		}
		removed += c.SweepOnce(batch)
	}
	if v := c.Stats().SweepVisited; v > 3*n {
		t.Fatalf("collecting %d entries behind the front took %d visits, more than %d", n, v, 3*n)
	}
	if got := c.storedLen(); got != 2*batch {
		t.Fatalf("stored entries after sweep = %d, want the %d immortal ones", got, 2*batch)
	}
}

// TestStaleCollectNeverResurrectsOrKills is the sweeper-vs-writer CAS
// regression test, deterministically: a sweeper that sampled an entry,
// stalled, and fires its conditional delete after a writer replaced the
// key must hit nothing — the fresh value survives.
func TestStaleCollectNeverResurrectsOrKills(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	c.SetTTL(1, "old", 10*time.Millisecond)
	stale, ok := c.m.Load(1) // the item a stalled sweeper would hold
	if !ok {
		t.Fatal("setup: entry missing")
	}
	clk.advance(time.Hour) // "old" is long expired
	c.SetTTL(1, "fresh", 0)

	c.collect(1, stale) // the stalled sweeper finally fires
	if v, okg := c.Get(1); !okg || v != "fresh" {
		t.Fatalf("stale collect disturbed the fresh entry: %q, %v", v, okg)
	}
	if st := c.Stats(); st.Expired != 0 {
		t.Fatalf("stale collect counted a removal: %+v", st)
	}

	// And the mirrored order: collect the genuinely-stored expired item,
	// then a write revives the key independently.
	c.SetTTL(2, "old", 10*time.Millisecond)
	it2, _ := c.m.Load(2)
	clk.advance(time.Hour)
	c.collect(2, it2)
	if _, okg := c.m.Load(2); okg {
		t.Fatal("expired entry survived its collect")
	}
	c.SetTTL(2, "fresh2", 0)
	if v, okg := c.Get(2); !okg || v != "fresh2" {
		t.Fatalf("revived entry = %q, %v", v, okg)
	}
}

// TestComputeSemantics: live entries update in place keeping their
// deadline; absent and expired entries (re)insert with the default TTL.
func TestComputeSemantics(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, uint64](clk, growt.WithTTL(time.Minute))
	defer c.Close()
	add := func(cur, d uint64) uint64 { return cur + d }

	if !c.Compute(1, 5, add) {
		t.Fatal("compute on absent key did not insert")
	}
	if c.Compute(1, 3, add) {
		t.Fatal("compute on live key claimed an insert")
	}
	if v, _ := c.Get(1); v != 8 {
		t.Fatalf("compute sum = %d, want 8", v)
	}
	// The update kept the original deadline: advancing past it expires
	// the entry even though the second Compute happened later.
	clk.advance(30 * time.Second)
	c.Compute(1, 1, add) // live update at t+30s; deadline unchanged
	clk.advance(31 * time.Second)
	if _, ok := c.Get(1); ok {
		t.Fatal("update extended the entry's life")
	}
	// Expired entry: Compute restarts from the operand, not the corpse.
	c.SetTTL(2, 100, time.Second)
	clk.advance(2 * time.Second)
	if !c.Compute(2, 7, add) {
		t.Fatal("compute on expired key did not report insert")
	}
	if v, _ := c.Get(2); v != 7 {
		t.Fatalf("compute over expired = %d, want 7 (not 107)", v)
	}
}

// TestCompareAndSwapSemantics: value-level CAS preserves the deadline
// and treats expired entries as absent.
func TestCompareAndSwapSemantics(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	c.SetTTL(1, "a", time.Minute)
	if swapped, found := c.CompareAndSwap(1, "x", "b"); swapped || !found {
		t.Fatalf("mismatched CAS = %v, %v", swapped, found)
	}
	if swapped, found := c.CompareAndSwap(1, "a", "b"); !swapped || !found {
		t.Fatalf("matched CAS = %v, %v", swapped, found)
	}
	if v, _ := c.Get(1); v != "b" {
		t.Fatalf("CAS left %q", v)
	}
	if swapped, found := c.CompareAndSwap(9, "a", "b"); swapped || found {
		t.Fatalf("absent CAS = %v, %v", swapped, found)
	}
	// The swap kept the deadline.
	clk.advance(2 * time.Minute)
	if _, ok := c.Get(1); ok {
		t.Fatal("CAS extended the entry's life")
	}
	// Expired entries are absent to CAS — and collected in passing.
	c.SetTTL(2, "a", time.Second)
	clk.advance(2 * time.Second)
	if swapped, found := c.CompareAndSwap(2, "a", "b"); swapped || found {
		t.Fatalf("expired CAS = %v, %v", swapped, found)
	}
	if _, ok := c.m.Load(2); ok {
		t.Fatal("expired entry survived the CAS probe")
	}
}

// TestExpireAndTTL covers re-deadlining and TTL introspection.
func TestExpireAndTTL(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	c.SetTTL(1, "v", time.Minute)
	if d, ok := c.TTL(1); !ok || d != time.Minute {
		t.Fatalf("ttl = %v, %v", d, ok)
	}
	if !c.Expire(1, time.Hour) {
		t.Fatal("expire refused a live key")
	}
	if d, _ := c.TTL(1); d != time.Hour {
		t.Fatalf("re-deadlined ttl = %v", d)
	}
	if !c.Expire(1, 0) { // 0 = immortal
		t.Fatal("expire-to-immortal refused")
	}
	if d, ok := c.TTL(1); !ok || d >= 0 {
		t.Fatalf("immortal ttl = %v, %v", d, ok)
	}
	if c.Expire(9, time.Minute) {
		t.Fatal("expire invented a key")
	}
	// Expire cannot revive the dead.
	c.SetTTL(2, "v", time.Second)
	clk.advance(2 * time.Second)
	if c.Expire(2, time.Hour) {
		t.Fatal("expire revived an expired entry")
	}
	if _, ok := c.TTL(2); ok {
		t.Fatal("ttl of an expired entry reported ok")
	}
	// A TTL that reaches past the end of the clock (the wire saturates
	// SETEX/EXPIRE to one) means "never": the deadline saturates, it does
	// not wrap into the past.
	c.SetTTL(3, "v", math.MaxInt64)
	if v, ok := c.Get(3); !ok || v != "v" {
		t.Fatalf("entry with a saturating ttl born expired: %q, %v", v, ok)
	}
	if !c.Expire(1, math.MaxInt64) {
		t.Fatal("expire with a saturating ttl refused a live key")
	}
	if d, ok := c.TTL(1); !ok || d <= 0 {
		t.Fatalf("expire with a saturating ttl killed a live key: ttl %v, %v", d, ok)
	}
}

// TestDeleteExpired: deleting an expired entry reports "was absent" but
// still collects it.
func TestDeleteExpired(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()

	c.SetTTL(1, "v", time.Second)
	clk.advance(2 * time.Second)
	if c.Delete(1) {
		t.Fatal("delete of an expired entry returned true")
	}
	if c.storedLen() != 0 {
		t.Fatal("expired entry survived delete")
	}
	if st := c.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvictionBudget: under sustained over-budget insertion the cache
// holds its size near the configured bound and prefers cold entries.
// evKey rides the generic route, whose size counter is exact, so the
// bound can be asserted tightly.
func TestEvictionBudget(t *testing.T) {
	clk := newFakeClock()
	const budget = 128
	c := newTestCache[evKey, string](clk, growt.WithMaxEntries(budget))
	defer c.Close()

	// Fill to budget with immortal entries...
	for i := evKey(0); i < budget; i++ {
		c.SetTTL(i, "cold", 0)
	}
	holdsBudgetPreferringHot(t, clk, c, budget, 0)
}

// TestEvictionBudgetStaleRing is TestEvictionBudget after each key in
// budget/2..budget-1 was written again under the budget, overwritten
// (even keys) or deleted first (odd keys). The ring has the budget's
// slots and is full, so those writes make room: they queue the live
// entries they meet again and drop the items that are no longer entries.
// Eviction reads the ring's items without asking the map, so a stale one
// may cost it a refused conditional delete but neither the budget nor
// the preference for hot entries.
func TestEvictionBudgetStaleRing(t *testing.T) {
	clk := newFakeClock()
	const budget = 128
	c := newTestCache[evKey, string](clk, growt.WithMaxEntries(budget))
	defer c.Close()

	for i := evKey(0); i < budget; i++ {
		c.SetTTL(i, "first", 0)
	}
	for i := evKey(budget / 2); i < budget; i++ {
		if i%2 == 1 {
			c.Delete(i)
		}
		c.SetTTL(i, "cold", 0)
	}
	holdsBudgetPreferringHot(t, clk, c, budget, budget/2)
}

// holdsBudgetPreferringHot takes a cache holding budget cold keys
// 0..budget-1, makes the first half of lo..budget-1 hot (a read marks
// them visited), pushes 4× the budget of fresh keys through, and checks
// that the size held near the budget and that, within lo..budget-1, hot
// keys outlived cold ones.
func holdsBudgetPreferringHot(t *testing.T, clk *fakeClock, c *Cache[evKey, string], budget, lo evKey) {
	t.Helper()
	mid := lo + (budget-lo)/2
	clk.advance(time.Hour)
	for i := lo; i < mid; i++ {
		c.Get(i)
	}
	for i := evKey(1000); i < 1000+4*budget; i++ {
		c.SetTTL(i, "new", 0)
	}
	if size := c.Len(); size > uint64(budget)+maxEvictPerWrite {
		t.Fatalf("size %d blew the budget %d", size, budget)
	}
	if c.Stats().Evicted == 0 {
		t.Fatal("no evictions recorded")
	}
	// A visited entry is passed over once: hot survivors must not lose
	// to cold survivors.
	hot, cold := 0, 0
	for i := lo; i < mid; i++ {
		if _, ok := c.m.Load(i); ok {
			hot++
		}
	}
	for i := mid; i < budget; i++ {
		if _, ok := c.m.Load(i); ok {
			cold++
		}
	}
	if hot < cold {
		t.Fatalf("eviction took hot before cold: %d hot vs %d cold survivors", hot, cold)
	}
}

// TestOverwritesKeepEntriesQueued: overwrites under the budget fill the
// ring with items that are no longer entries. A write that finds the
// ring full must not evict for it, nor let a live entry drop out of the
// ring, where it could never be evicted again: once 4× the budget of new
// keys has passed through, none of the old keys, which nobody reads, is
// still stored.
func TestOverwritesKeepEntriesQueued(t *testing.T) {
	clk := newFakeClock()
	const budget = 128
	c := newTestCache[evKey, string](clk, growt.WithMaxEntries(budget))
	defer c.Close()
	for i := evKey(0); i < budget; i++ {
		c.SetTTL(i, "first", 0)
	}
	for round := 0; round < 3; round++ {
		for i := evKey(budget / 2); i < budget; i++ {
			c.SetTTL(i, "again", 0)
		}
	}
	if st := c.Stats(); st.Evicted != 0 || c.Len() != budget {
		t.Fatalf("overwrites under the budget left %d entries and evicted %d", c.Len(), st.Evicted)
	}
	for i := evKey(1000); i < 1000+4*budget; i++ {
		c.SetTTL(i, "new", 0)
	}
	old := 0
	for i := evKey(0); i < budget; i++ {
		if _, ok := c.m.Load(i); ok {
			old++
		}
	}
	if old > 0 {
		t.Fatalf("%d of %d old keys still stored after %d new ones", old, budget, 4*budget)
	}
}

// TestRingRetentionBounded: the eviction ring keeps the items it holds
// reachable, values included, so it must not be much larger than the
// budget. A budget of 10 fed 64 KiB values, first under new keys and
// then as overwrites of ten keys, keeps the heap within a few budgets'
// worth of values however many writes pass through.
func TestRingRetentionBounded(t *testing.T) {
	const budget, size, writes = 10, 64 << 10, 4096
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	c := newTestCache[uint64, string](newFakeClock(), growt.WithMaxEntries(budget))
	defer c.Close()
	for _, phase := range []struct {
		name string
		key  func(i uint64) uint64
	}{
		{"new keys", func(i uint64) uint64 { return i }},
		{"overwrites", func(i uint64) uint64 { return 1<<20 + i%budget }},
	} {
		for i := uint64(0); i < writes; i++ {
			c.Set(phase.key(i), strings.Repeat("v", size))
		}
		if grown := heap() - base; grown > 4*budget*size {
			t.Fatalf("%s: heap grew %d KiB after %d writes, more than 4 budgets of %d KiB values (%d KiB)",
				phase.name, grown>>10, writes, size>>10, 4*budget*size>>10)
		}
	}
}

// TestPagesFollowBudget: a budgeted cache fed never-reused keys holds
// about its budget of arena pages, whatever the write rate per TTL and
// with or without a TTL. Entries nobody reads leave in write order, so
// the pages they filled retire in order too; an eviction order that
// leaves survivors on old pages holds pages in proportion to the writes
// within one TTL instead. The count is the growt_generic_pages_live
// gauge's change over the cache's life, so the test must not run in
// parallel with others that build generic-route maps.
func TestPagesFollowBudget(t *testing.T) {
	const budget = 4096
	pagesLive := obs.Default.Gauge("growt_generic_pages_live")
	for _, tc := range []struct {
		ttl    time.Duration
		perTTL int // writes per second of the clock, in budgets
	}{
		{0, 5}, {0, 20}, {time.Second, 5}, {time.Second, 20},
	} {
		clk := newFakeClock()
		before := pagesLive.Value()
		c := newTestCache[uint64, string](clk, growt.WithMaxEntries(budget))
		step := time.Second / time.Duration(tc.perTTL*budget)
		for k := uint64(0); k < 40*budget; k++ {
			c.SetTTL(k, "v", tc.ttl)
			clk.advance(step)
			if (k+1)%1024 == 0 {
				c.SweepOnce(1024)
			}
		}
		pages := pagesLive.Value() - before
		c.Close()
		t.Logf("ttl %v, %d× the budget written per second: %d pages live", tc.ttl, tc.perTTL, pages)
		if pages > budget/256+2 {
			t.Errorf("ttl %v, %d× the budget written per second: %d pages live, more than the %d that hold the budget",
				tc.ttl, tc.perTTL, pages, budget/256+2)
		}
	}
}

// TestRangeSkipsExpired: Range surfaces only live entries.
func TestRangeSkipsExpired(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[uint64, string](clk)
	defer c.Close()
	c.SetTTL(1, "live", 0)
	c.SetTTL(2, "dying", time.Second)
	clk.advance(2 * time.Second)
	seen := map[uint64]string{}
	c.Range(func(k uint64, v string) bool { seen[k] = v; return true })
	if len(seen) != 1 || seen[1] != "live" {
		t.Fatalf("range saw %v", seen)
	}
}

// TestCacheRoutes smoke-tests the cache over the string and generic key
// routes (the server rides the generic route via its named-string Key).
func TestCacheRoutes(t *testing.T) {
	type namedKey string
	clk := newFakeClock()
	t.Run("generic", func(t *testing.T) {
		c := newTestCache[namedKey, string](clk)
		defer c.Close()
		c.SetTTL("a", "1", time.Minute)
		if v, ok := c.Get("a"); !ok || v != "1" {
			t.Fatalf("get = %q, %v", v, ok)
		}
		clk.advance(2 * time.Minute)
		if _, ok := c.Get("a"); ok {
			t.Fatal("expired generic-route entry observable")
		}
	})
	t.Run("string", func(t *testing.T) {
		c := newTestCache[string, string](clk)
		defer c.Close()
		c.SetTTL("a", "1", time.Minute)
		if v, ok := c.Get("a"); !ok || v != "1" {
			t.Fatalf("get = %q, %v", v, ok)
		}
		clk.advance(2 * time.Minute)
		if _, ok := c.Get("a"); ok {
			t.Fatal("expired string-route entry observable")
		}
	})
}

// TestDefaultTTLFromOptions: Set uses WithTTL's default; SetTTL
// overrides per entry; ResolveCacheSettings reads back the knobs.
func TestDefaultTTLFromOptions(t *testing.T) {
	set := growt.ResolveCacheSettings(
		growt.WithTTL(time.Minute),
		growt.WithMaxEntries(10),
		growt.WithSweepInterval(time.Second),
	)
	if set.TTL != time.Minute || set.MaxEntries != 10 || set.SweepInterval != time.Second {
		t.Fatalf("resolved settings = %+v", set)
	}

	clk := newFakeClock()
	c := newTestCache[uint64, string](clk, growt.WithTTL(time.Minute))
	defer c.Close()
	c.Set(1, "default-ttl")
	c.SetTTL(2, "longer", time.Hour)
	clk.advance(2 * time.Minute)
	if _, ok := c.Get(1); ok {
		t.Fatal("default TTL not applied by Set")
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("per-entry TTL overridden by default")
	}
}

// TestBackgroundSweeper exercises the real ticker loop end to end (real
// clock; generous deadline so CI timing noise cannot bite).
func TestBackgroundSweeper(t *testing.T) {
	c := New[evKey, string](growt.WithSweepInterval(10 * time.Millisecond))
	defer c.Close()
	for i := evKey(0); i < 50; i++ {
		c.SetTTL(i, "v", 20*time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.storedLen() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper left %d expired entries after 5s", c.storedLen())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.Stats(); st.Expired != 50 || st.Sweeps == 0 {
		t.Fatalf("stats after background sweep = %+v", st)
	}
}

// countingView is a view that counts the map operations made through it.
type countingView[K comparable, V any] struct {
	view[K, V]
	loads, stores, cads int
}

func (v *countingView[K, V]) Load(k K) (*item[V], bool) {
	v.loads++
	return v.view.Load(k)
}

func (v *countingView[K, V]) Store(k K, it *item[V]) {
	v.stores++
	v.view.Store(k, it)
}

func (v *countingView[K, V]) CompareAndDelete(k K, old *item[V]) bool {
	v.cads++
	return v.view.CompareAndDelete(k, old)
}

// TestEvictionAsksMapOnce: an over-budget Set stores its item, evicts,
// and asks the map for nothing else than one conditional delete per
// eviction attempt — the hand's candidates are read from the ring's
// items, not looked up by key.
func TestEvictionAsksMapOnce(t *testing.T) {
	clk := newFakeClock()
	const budget = 1024
	c := newTestCache[uint64, string](clk, growt.WithMaxEntries(budget))
	defer c.Close()
	for i := uint64(0); i < 2*budget; i++ {
		c.Set(i, "v")
	}
	cv := &countingView[uint64, string]{view: c.m}
	o := ops[uint64, string]{c: c, v: cv}
	for i := uint64(0); i < 100; i++ {
		cv.loads, cv.stores, cv.cads = 0, 0, 0
		evicted := c.Stats().Evicted
		o.Set(1<<20+i, "new")
		if cv.stores != 1 || cv.loads != 0 || cv.cads > maxEvictPerWrite {
			t.Fatalf("over-budget Set made %d Stores, %d Loads, %d CompareAndDeletes; want 1, 0, at most %d",
				cv.stores, cv.loads, cv.cads, maxEvictPerWrite)
		}
		if c.Stats().Evicted == evicted {
			t.Fatalf("over-budget Set %d evicted nothing", i)
		}
	}
	if size := c.Len(); size > budget {
		t.Fatalf("size %d over the budget %d", size, budget)
	}
}

// TestCacheAllocs pins what an operation on a present key allocates. A
// read and a refused conditional write allocate nothing, through the
// handle-free Cache and through a Session; a conditional write that
// succeeds allocates the new item, nothing else — the map keeps its
// pointer as the value word, with no box around it (that box made 2) —
// and so does an over-budget Set that evicts an entry.
func TestCacheAllocs(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache[string, string](clk)
	defer c.Close()
	s := c.NewSession()
	defer s.Close()
	c.Set("key", "v0")
	cur := "v0"
	const budget = 1024
	b := newTestCache[uint64, string](clk, growt.WithMaxEntries(budget))
	defer b.Close()
	next := uint64(0)
	for ; next < 2*budget; next++ {
		b.Set(next, "v")
	}
	for _, tc := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"Cache.Get", 0, func() { c.Get("key") }},
		{"Session.Get", 0, func() { s.Get("key") }},
		{"refused Cache.CompareAndSwap", 0, func() { c.CompareAndSwap("key", "other", "v1") }},
		{"refused Session.CompareAndSwap", 0, func() { s.CompareAndSwap("key", "other", "v1") }},
		{"refused CompareAndDelete", 0, func() { s.CompareAndDelete("key", "other") }},
		{"absent Expire", 0, func() { s.Expire("absent", time.Hour) }},
		{"successful CompareAndSwap", 1, func() {
			next := "v1"
			if cur == "v1" {
				next = "v0"
			}
			if swapped, _ := s.CompareAndSwap("key", cur, next); !swapped {
				t.Fatal("CompareAndSwap refused the current value")
			}
			cur = next
		}},
		{"Expire", 1, func() { s.Expire("key", time.Hour) }},
		{"over-budget Set", 1, func() {
			evicted := b.Stats().Evicted
			b.Set(next, "v")
			next++
			if b.Stats().Evicted != evicted+1 {
				t.Fatal("over-budget Set did not evict exactly one entry")
			}
		}},
	} {
		if got := testing.AllocsPerRun(1000, tc.op); got > tc.max {
			t.Errorf("%s: %v allocs/op, want at most %v", tc.name, got, tc.max)
		}
	}
}
