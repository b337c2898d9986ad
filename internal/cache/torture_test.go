package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	growt "repro"
)

// This file is the cache's -race torture rack: concurrent
// SETEX/GET/EXPIRE/DELETE traffic with a sweeping goroutine, run over a
// deliberately tiny initial table so the word core migrates constantly
// underneath (tombstones from expiry count toward the §5.4 migration
// trigger, so an expiring workload is migration churn by construction).
//
// The load-bearing invariant is encoded in the values: every write
// stores its own absolute expiry deadline as the value, so any Get hit
// can check "was this entry live when I started?" without any shared
// test state. A hit whose deadline precedes the Get's start time is an
// expired value escaping — the bug class this layer must exclude.

// tortureCache runs the mixed expiring workload over c for dur.
func tortureCache(t *testing.T, c *Cache[uint64, int64], keys uint64, dur time.Duration) {
	t.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(body func(r *testRNG)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newTestRNG(uint64(time.Now().UnixNano()))
			for !stop.Load() {
				body(r)
			}
		}()
	}

	// Writers: expiring stores whose value IS the stored deadline —
	// SetExpiry makes them exactly equal, so the read-side assertion has
	// no scheduling slack to tolerate.
	for i := 0; i < 3; i++ {
		worker(func(r *testRNG) {
			k := r.next() % keys
			ttl := time.Duration(1+r.next()%8) * time.Millisecond
			dl := time.Now().UnixNano() + int64(ttl)
			c.SetExpiry(k, dl, dl)
		})
	}
	// Readers: the expired-never-observable assertion.
	for i := 0; i < 3; i++ {
		worker(func(r *testRNG) {
			k := r.next() % keys
			before := time.Now().UnixNano()
			if dl, ok := c.Get(k); ok && before >= dl {
				stop.Store(true)
				t.Errorf("expired value escaped: deadline %d, read started %d (%.2fms late)",
					dl, before, float64(before-dl)/1e6)
			}
		})
	}
	// Deleters + deadline-shrinkers. Expire may only ever SHRINK a
	// deadline here: the stored value records the write's deadline, so
	// extending would invalidate the read-side assertion — and shrinking
	// still races Expire's update CAS against writers and the sweeper.
	worker(func(r *testRNG) {
		k := r.next() % keys
		if r.next()%2 == 0 {
			c.Delete(k)
		} else {
			_ = c.Expire(k, time.Nanosecond)
		}
	})
	// Sweeper: incremental proactive expiry in small slices.
	worker(func(r *testRNG) {
		c.SweepOnce(64)
		time.Sleep(200 * time.Microsecond)
	})

	time.AfterFunc(dur, func() { stop.Store(true) })
	wg.Wait()
}

// TestCacheTortureExpiredNeverObservable wires the rack to tiny growing
// tables (capacity 8, several strategies) so
// migrations run continuously under the expiry races.
func TestCacheTortureExpiredNeverObservable(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	for _, tc := range []struct {
		name string
		opts []growt.Option
	}{
		{"uaGrow-cap8", []growt.Option{growt.WithCapacity(8)}},
		{"usGrow-cap8", []growt.Option{growt.WithStrategy(growt.USGrow), growt.WithCapacity(8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append(tc.opts, growt.WithSweepInterval(-1))
			c := New[uint64, int64](opts...)
			defer c.Close()
			tortureCache(t, c, 256, dur)
		})
	}
}

// TestCacheTortureExactCounters: concurrent Compute increments on
// immortal keys must stay exact while an expiring churn workload (and
// the sweeper) rages on a disjoint keyspace in the same table — the
// sweeper and the expiry races may never eat a live immortal entry.
func TestCacheTortureExactCounters(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	c := New[uint64, int64](growt.WithCapacity(8), growt.WithSweepInterval(-1))
	defer c.Close()

	const counters = 8
	const churnBase = uint64(1 << 20) // disjoint from counter keys
	var stop atomic.Bool
	var churnWG, addWG sync.WaitGroup

	// Churn: short-TTL writes + sweeps, forcing migrations under the
	// counters' feet.
	for i := 0; i < 2; i++ {
		churnWG.Add(1)
		go func(seed uint64) {
			defer churnWG.Done()
			r := newTestRNG(seed)
			for !stop.Load() {
				k := churnBase + r.next()%512
				c.SetTTL(k, 0, time.Duration(1+r.next()%4)*time.Millisecond)
				if r.next()%8 == 0 {
					c.SweepOnce(64)
				}
			}
		}(uint64(i) + 1)
	}

	const workers = 4
	add := func(cur, d int64) int64 { return cur + d }
	for w := 0; w < workers; w++ {
		addWG.Add(1)
		go func(w int) {
			defer addWG.Done()
			for i := 0; i < rounds; i++ {
				c.Compute(uint64((i+w)%counters), 1, add)
			}
		}(w)
	}
	addWG.Wait()
	stop.Store(true)
	churnWG.Wait()

	var total int64
	for k := uint64(0); k < counters; k++ {
		v, ok := c.Get(k)
		if !ok {
			t.Fatalf("immortal counter %d vanished", k)
		}
		total += v
	}
	if want := int64(workers * rounds); total != want {
		t.Fatalf("lost increments under churn: %d, want %d", total, want)
	}
}

// TestCacheTortureBudgetHolds: open-loop concurrent writes of distinct
// keys against a budget; the exact-counting generic route must stay
// within the budget plus bounded concurrency slack, and after the storm
// a single write pass must pull it back under budget + per-write bound.
func TestCacheTortureBudgetHolds(t *testing.T) {
	perWorker := 4000
	if testing.Short() {
		perWorker = 500
	}
	const budget = 512
	c := New[evKey, int64](growt.WithMaxEntries(budget), growt.WithSweepInterval(-1))
	defer c.Close()

	const workers = 8
	var wg sync.WaitGroup
	var over atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.SetTTL(evKey(uint64(w)<<32|uint64(i)), 0, 0)
				if s := int64(c.Len()) - (budget + workers*maxEvictPerWrite); s > over.Load() {
					over.Store(s) // racy max is fine: any positive is a report
				}
			}
		}(w)
	}
	wg.Wait()
	if o := over.Load(); o > 0 {
		t.Fatalf("budget overshot concurrency slack by %d entries", o)
	}
	// Quiescent: a few closing writes drain any transient excess.
	for i := 0; i < maxEvictPerWrite; i++ {
		c.SetTTL(evKey(1<<60+uint64(i)), 0, 0)
	}
	if size := c.Len(); size > budget+maxEvictPerWrite {
		t.Fatalf("quiescent size %d exceeds budget %d", size, budget)
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Fatal("no evictions under a 60× over-budget storm")
	}
}

// TestCacheTortureSmallBudgetRecovers: eight writers overwrite, delete
// and add keys through budgets of 2 to 8 entries without a TTL, so the
// ring is full most of the time and the hand keeps catching the tail,
// meeting slots reserved by writes that have not stored their item yet.
// An entry that dropped out of the ring while still stored could never
// be evicted again, and with no TTL it would stay for good: after the
// storm, a few quiescent writes must bring the size back to the budget.
func TestCacheTortureSmallBudgetRecovers(t *testing.T) {
	perWorker := 20_000
	if testing.Short() {
		perWorker = 4_000
	}
	const workers = 8
	for _, budget := range []uint64{2, 3, 5, 8} {
		c := New[evKey, int64](growt.WithMaxEntries(budget), growt.WithSweepInterval(-1))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					k := evKey(uint64(w)<<32 | uint64(i))
					switch i % 4 {
					case 1, 2: // overwrite one of the worker's last few keys
						k = evKey(uint64(w)<<32 | uint64(i&^7))
					case 3:
						c.Delete(evKey(uint64(w)<<32 | uint64(i-3)))
					}
					c.SetTTL(k, int64(k), 0)
				}
			}(w)
		}
		wg.Wait()
		for i := uint64(0); i < 4*budget; i++ {
			c.SetTTL(evKey(1<<60+i), 0, 0)
		}
		if size := c.Len(); size > budget {
			t.Errorf("budget %d: %d entries stored after the storm drained", budget, size)
		}
		c.Close()
	}
}

// TestCacheTortureChurnBounded: a 1 000-entry budget over a stream of
// never-reused keys with a TTL — growd's session-id workload. Every key
// ever written must be accounted for exactly once — still stored, expired
// or evicted: a write lost to a chain being sealed and dropped under it,
// or a removal counted twice, breaks the sum — a read that hits must see
// its own key's value, and the heap must follow the budget, not the keys
// ever seen.
func TestCacheTortureChurnBounded(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	const workers, budget = 4, 1000
	clk := newFakeClock()
	c := newTestCache[evKey, int64](clk, growt.WithMaxEntries(budget), growt.WithTTL(2*time.Millisecond))
	defer c.Close()
	// Each write advances the clock by ttl/budget, so about a budget of
	// keys is written per TTL at any speed of the machine: the hand meets
	// both live and expired entries, and both removal paths run.
	step := 2 * time.Millisecond / budget

	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	write := func(from, to int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := from; i < to; i++ {
					k := evKey(uint64(w)<<32 | uint64(i))
					c.Set(k, int64(k))
					clk.advance(step)
					if v, ok := c.Get(k); ok && v != int64(k) {
						t.Errorf("key %#x read back %#x", uint64(k), v)
						return
					}
					if i%512 == 0 {
						c.SweepOnce(256)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	warm := total / workers / 10
	write(0, warm)
	heap := heapAfterGC()
	write(warm, total/workers)
	if grew := int64(heapAfterGC()) - int64(heap); grew > 8<<20 {
		t.Errorf("heap grew by %d bytes over %d keys under a %d-entry budget", grew, total-workers*warm, budget)
	}
	st := c.Stats()
	if st.Expired == 0 || st.Evicted == 0 {
		t.Errorf("expired %d, evicted %d: both removal paths must have run", st.Expired, st.Evicted)
	}
	stored := uint64(0)
	c.m.Range(func(evKey, *item[int64]) bool { stored++; return true })
	if written := uint64(total / workers * workers); stored+st.Expired+st.Evicted != written || stored != c.Len() {
		t.Fatalf("%d keys written, but %d stored (Len %d) + %d expired + %d evicted", written, stored, c.Len(), st.Expired, st.Evicted)
	}
}

// TestCacheTortureHotSetSurvives: two readers loop over 64 hot keys while
// four writers push never-reused keys through a 1 000-entry budget,
// sweeping as they go. Every write advances the fake clock by 1µs, and
// every other key lives 300µs, so it expires long before the hand
// reaches it while its neighbours are evicted: eviction, lazy collection
// and the sweeper all race the ring's hand and tail. Every key written is
// still stored, expired or evicted exactly once; the budget holds within
// TestCacheTortureBudgetHolds' slack; and the hot keys, read between any
// two passes of the hand, outlive the churn. The writers wait whenever
// the last complete pass over the hot set began more than 256 writes
// ago, so what makes a key hot is the workload, not the scheduler.
func TestCacheTortureHotSetSurvives(t *testing.T) {
	total := 200_000
	if testing.Short() {
		total = 20_000
	}
	const workers, readers, budget, hot = 4, 2, 1000, 64
	clk := newFakeClock()
	c := newTestCache[evKey, int64](clk, growt.WithMaxEntries(budget))
	defer c.Close()
	for k := evKey(0); k < hot; k++ {
		c.SetTTL(k, int64(k), 0)
	}

	var stop atomic.Bool
	// readFrom is the write count when the last complete pass over the
	// hot set began (two readers may store it out of order, which only
	// makes the writers wait longer).
	var readFrom, written, over atomic.Int64
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for !stop.Load() {
				from := written.Load()
				for k := evKey(0); k < hot; k++ {
					if v, ok := c.Get(k); ok && v != int64(k) {
						t.Errorf("hot key %d read back %d", k, v)
					}
				}
				readFrom.Store(from)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < total/workers; i++ {
				for written.Load()-readFrom.Load() > 256 {
					runtime.Gosched()
				}
				k, ttl := evKey(uint64(w+1)<<32|uint64(i)), time.Duration(0)
				if i%2 == 0 {
					ttl = 300 * time.Microsecond
				}
				c.SetTTL(k, int64(k), ttl)
				clk.advance(time.Microsecond)
				written.Add(1)
				if s := int64(c.Len()) - (budget + workers*maxEvictPerWrite); s > over.Load() {
					over.Store(s) // racy max is fine: any positive is a report
				}
				if i%512 == 0 {
					c.SweepOnce(256)
				}
			}
		}(w)
	}
	wwg.Wait()
	stop.Store(true)
	rwg.Wait()

	if o := over.Load(); o > 0 {
		t.Errorf("budget overshot concurrency slack by %d entries", o)
	}
	st := c.Stats()
	if st.Expired == 0 || st.Evicted == 0 {
		t.Errorf("expired %d, evicted %d: both removal paths must have run", st.Expired, st.Evicted)
	}
	stored, hotStored := uint64(0), 0
	c.m.Range(func(k evKey, _ *item[int64]) bool {
		stored++
		if k < hot {
			hotStored++
		}
		return true
	})
	if all := uint64(hot + total/workers*workers); stored+st.Expired+st.Evicted != all {
		t.Fatalf("%d keys written, but %d stored + %d expired + %d evicted", all, stored, st.Expired, st.Evicted)
	}
	if hotStored < hot*9/10 {
		t.Fatalf("%d of %d hot keys stored after the churn, fewer than 90 %%", hotStored, hot)
	}
}

// TestCacheTortureSwapVersusExpire races the cache's two item-replacing
// conditional writes on the same keys, over a table that keeps
// migrating: bumpers count up through a Get/CompareAndSwap retry loop,
// half on the handle-free Cache and half on a Session, while expirers
// re-deadline the same keys, every call to a TTL of its own. Both are
// the same loop on the item pointer, so neither may undo the other: a
// counter ends at exactly the number of swaps that reported success, no
// key is ever seen absent, and a key's final deadline is the last one
// some expirer wrote to it — a swap carries the deadline it found, so it
// can only pass an Expire's deadline on, never an older one.
func TestCacheTortureSwapVersusExpire(t *testing.T) {
	rounds := 4000
	if testing.Short() {
		rounds = 500
	}
	const keys, bumpers, expirers = 4, 4, 2
	clk := newFakeClock() // never advanced: an entry's TTL reads back as written
	c := newTestCache[uint64, int64](clk, growt.WithCapacity(8))
	defer c.Close()
	for k := uint64(0); k < keys; k++ {
		c.SetTTL(k, 0, time.Hour)
	}

	var stop atomic.Bool
	var fillWG, wg sync.WaitGroup
	fillWG.Add(1)
	go func() { // keeps the table growing under the races
		defer fillWG.Done()
		for k := uint64(1 << 20); !stop.Load(); k++ {
			c.Set(k, 0)
		}
	}()

	var wins [keys]atomic.Int64
	for b := 0; b < bumpers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			get, cas := c.Get, c.CompareAndSwap
			if b%2 == 1 {
				s := c.NewSession()
				defer s.Close()
				get, cas = s.Get, s.CompareAndSwap
			}
			for i := 0; i < rounds; i++ {
				k := uint64(i+b) % keys
				v, ok := get(k)
				swapped, found := cas(k, v, v+1)
				if !ok || !found {
					t.Errorf("key %d seen absent (get %v, swap found %v)", k, ok, found)
					return
				}
				if swapped {
					wins[k].Add(1)
				}
			}
		}(b)
	}
	var last [expirers][keys]time.Duration // the TTL each expirer wrote last
	for e := 0; e < expirers; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			s := c.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				k := uint64(i) % keys
				ttl := 2*time.Hour + time.Duration(i*expirers+e)
				if !s.Expire(k, ttl) {
					t.Errorf("Expire refused live key %d", k)
					return
				}
				last[e][k] = ttl
			}
		}(e)
	}
	wg.Wait()
	stop.Store(true)
	fillWG.Wait()

	if c.Generation() == 0 {
		t.Fatal("no migration ran")
	}
	for k := uint64(0); k < keys; k++ {
		if v, ok := c.Get(k); !ok || v != wins[k].Load() {
			t.Errorf("key %d = %d, %v after %d successful swaps", k, v, ok, wins[k].Load())
		}
		d, _ := c.TTL(k)
		written := false
		for e := range last {
			written = written || d == last[e][k]
		}
		if !written {
			t.Errorf("key %d ends with ttl %v, which no expirer wrote last (%v, %v)", k, d, last[0][k], last[1][k])
		}
	}
}

// testRNG is a tiny splitmix64 so torture goroutines need no locking.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed | 1} }
func (r *testRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
