package growt_test

// Reclamation on the generic key route: a dead key gives back its hash
// cell, its chain entry and — page by page — its arena memory. These
// tests exercise the four invariants listed in typed.go ("Generic
// comparable keys").

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	growt "repro"
	"repro/internal/cache"
	"repro/internal/obs"
)

// reclaimed is a reading of the generic route's reclamation series
// (process-wide: tests in this package do not run in parallel).
type reclaimed struct {
	chains, retired uint64
	live            int64
}

func readReclaimed() reclaimed {
	s := obs.Default.Snapshot()
	return reclaimed{
		chains:  s.Counter("growt_generic_chains_dropped_total"),
		retired: s.Counter("growt_generic_pages_retired_total"),
		live:    s.Gauge("growt_generic_pages_live"),
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGenericChurnBounded inserts and deletes never-reused string keys
// from four goroutines — two through handles, two through the handle-free
// Map — with at most 1 000 of them live at any time. The memory the map
// holds must follow the live keys, not the keys ever seen: the heap after
// a collection stays flat, all but the arena's last pages are retired
// (one entry not given back pins its page; one given back twice retires
// a page under a live entry, which the exact size and Range below would
// miss), and every key's chain was dropped exactly once.
func TestGenericChurnBounded(t *testing.T) {
	total := 2_000_000
	if testing.Short() {
		total = 200_000
	}
	const workers, window = 4, 250
	m := growt.New[string, uint64]()
	defer m.Close()

	// churn runs keys [from, to) of every worker's private key space
	// through the map, leaving it empty.
	churn := func(from, to int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				insert := func(k string, v uint64) bool { m.Store(k, v); return true }
				remove := m.Delete
				if w < workers/2 {
					h := m.Handle()
					insert, remove = h.Insert, h.Delete
				}
				name := func(i int) string { return strconv.Itoa(w) + "/" + strconv.Itoa(i) }
				for i := from; i < to+window; i++ {
					if i < to && !insert(name(i), uint64(i)) {
						t.Errorf("worker %d: fresh key %d refused", w, i)
						return
					}
					if i-window >= from && !remove(name(i-window)) {
						t.Errorf("worker %d: live key %d not found by delete", w, i-window)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	warm := total / workers / 10
	churn(0, warm)
	heap, before := heapAfterGC(), readReclaimed()
	churn(warm, total/workers)
	after := readReclaimed()
	if grew := int64(heapAfterGC()) - int64(heap); grew > 8<<20 {
		t.Errorf("heap grew by %d bytes over %d dead keys", grew, total-workers*warm)
	}
	if n := uint64(workers * (total/workers - warm)); after.chains-before.chains != n {
		t.Errorf("%d chains dropped for %d deleted keys", after.chains-before.chains, n)
	}
	if after.live > before.live+2 {
		t.Errorf("pages live %d -> %d: dead entries pin their pages", before.live, after.live)
	}
	if s := m.ApproxSize(); s != 0 {
		t.Fatalf("size %d after deleting every key", s)
	}
	for i := 0; i < 1000; i++ {
		m.Store(fmt.Sprint("tail/", i), uint64(i))
	}
	seen := 0
	m.Range(func(string, uint64) bool { seen++; return true })
	if s := m.ApproxSize(); s != 1000 || seen != 1000 {
		t.Fatalf("size %d, Range %d, want 1000", s, seen)
	}
}

// TestIntegerKeyWideValueChurnBounded: a wide value has one home, the
// generic route, under an integer key as under any other — an overwrite
// leaves the old value to the collector, a delete gives back entry, cell
// and page. Overwrites of 1 000 keys, never-reused keys inserted and
// deleted, and a bounded cache fed never-reused keys (what examples/cache
// does) all keep the heap after a collection flat.
func TestIntegerKeyWideValueChurnBounded(t *testing.T) {
	rounds := 1_000_000
	if testing.Short() {
		rounds = 250_000
	}
	const keys = 1000
	base := heapAfterGC()
	check := func(what string) {
		t.Helper()
		if grew := int64(heapAfterGC()) - int64(base); grew > 8<<20 {
			t.Fatalf("%s: heap grew by %d bytes", what, grew)
		}
	}
	value := func(i int) string { return "value-" + strconv.Itoa(i) }

	m := growt.New[uint64, string]()
	defer m.Close()
	h := m.Handle()
	for lap := 1; lap <= 4; lap++ {
		for i := 0; i < rounds; i++ {
			h.InsertOrUpdate(uint64(i%keys), value(i), growt.Replace[string])
		}
		check(fmt.Sprint(lap*rounds, " overwrites of ", keys, " keys"))
	}
	for i := 0; i < rounds; i++ {
		k := uint64(keys + i)
		if !h.Insert(k, value(i)) || !h.Delete(k) {
			t.Fatalf("fresh key %d: insert or delete refused", k)
		}
	}
	check(fmt.Sprint(rounds, " never-reused keys inserted and deleted"))
	if s := m.ApproxSize(); s != keys {
		t.Fatalf("size %d, want %d", s, keys)
	}

	c := cache.New[uint64, string](growt.WithMaxEntries(keys), growt.WithSweepInterval(-1))
	defer c.Close()
	for i := 0; i < rounds; i++ {
		c.Set(uint64(i), value(i))
	}
	check(fmt.Sprint("cache of ", keys, " entries fed ", rounds, " never-reused keys"))
	if n := c.Len(); n > 2*keys {
		t.Fatalf("cache holds %d entries over a budget of %d", n, keys)
	}
}

// TestGenericChainModel drives one long collision chain (a constant
// hasher) and two of them (a two-bucket hasher) through every
// interleaving of insert / delete / re-insert / seal / drop / re-create
// four goroutines can produce. Each goroutine owns a few keys, so the
// result of each of its operations is determined by a model map, while
// all keys share the chains: a dead entry that came back to life, an
// entry appended behind a seal, or a page retired under a live entry
// shows as a disagreement with the model, at the latest in the exact
// Range at the end of each round.
func TestGenericChainModel(t *testing.T) {
	rounds, opsPerRound := 20, 2000
	if testing.Short() {
		rounds = 10
	}
	const workers, keysPerWorker = 4, 2
	for _, buckets := range []uint64{1, 2} {
		t.Run(fmt.Sprint(buckets, "-bucket"), func(t *testing.T) {
			m := growt.New[string, uint64](growt.WithCapacity(8),
				growt.WithHasher(func(s string) uint64 { return uint64(len(s)) % buckets }))
			defer m.Close()
			var mu sync.Mutex
			model := make(map[string]uint64)
			before := readReclaimed()
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						h := m.Handle()
						rnd := rand.New(rand.NewSource(int64(round*workers + w)))
						for n := 0; n < opsPerRound; n++ {
							// Key lengths differ, so both buckets are used.
							k := fmt.Sprintf("%d.%0*d", w, 1+rnd.Intn(keysPerWorker), 0)
							v := uint64(rnd.Intn(3)) + 1
							mu.Lock()
							cur, present := model[k]
							mu.Unlock()
							var got, want bool
							next, nextPresent := cur, present
							switch op := rnd.Intn(10); op {
							case 0, 1:
								got, want = h.Insert(k, v), !present
								if !present {
									next, nextPresent = v, true
								}
							case 2:
								got, want = h.InsertOrUpdate(k, v, growt.Replace[uint64]), !present
								next, nextPresent = v, true
							case 3:
								got, want = h.Update(k, v, growt.Replace[uint64]), present
								if present {
									next = v
								}
							case 4:
								got, want = h.CompareAndSwap(k, v, v+10), present && cur == v
								if want {
									next = v + 10
								}
							case 5:
								out, ok := h.Find(k)
								got, want = ok && out == cur, present
								if !present {
									got = ok
								}
							case 6, 7:
								got, want = h.Delete(k), present
								nextPresent = false
							case 8:
								out, ok := h.LoadAndDelete(k)
								got, want = ok && out == cur, present
								if !present {
									got = ok
								}
								nextPresent = false
							case 9:
								got, want = h.CompareAndDelete(k, v), present && cur == v
								if want {
									nextPresent = false
								}
							}
							if got != want {
								t.Errorf("round %d worker %d: op on %q (model %d,%v) returned %v, want %v", round, w, k, cur, present, got, want)
								return
							}
							mu.Lock()
							if nextPresent {
								model[k] = next
							} else {
								delete(model, k)
							}
							mu.Unlock()
						}
					}(w)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				// Quiescent: Range must be the model, exactly.
				seen := make(map[string]uint64)
				m.Range(func(k string, v uint64) bool {
					if _, dup := seen[k]; dup {
						t.Errorf("round %d: Range surfaced %q twice", round, k)
					}
					seen[k] = v
					return true
				})
				if len(seen) != len(model) || m.ApproxSize() != uint64(len(model)) {
					t.Fatalf("round %d: Range %d, size %d, model %d", round, len(seen), m.ApproxSize(), len(model))
				}
				for k, v := range model {
					if seen[k] != v {
						t.Fatalf("round %d: %q = %d in Range, %d in model", round, k, seen[k], v)
					}
				}
				// Every other round ends with all keys dead, so the next one
				// starts by creating the chains again.
				if round%2 == 1 {
					for k := range model {
						if !m.Delete(k) {
							t.Fatalf("round %d: live key %q not found by delete", round, k)
						}
						delete(model, k)
					}
				}
			}
			after := readReclaimed()
			if after.chains-before.chains < uint64(rounds/2) {
				t.Errorf("%d chain drops in %d rounds: seal and drop were not exercised", after.chains-before.chains, rounds)
			}
			if !testing.Short() && after.retired == before.retired {
				t.Error("no page retired")
			}
		})
	}
}

// TestGenericHotPathAllocs pins the allocation budget of the generic
// route: a Find allocates nothing, a Store on a present key exactly the
// boxed value.
func TestGenericHotPathAllocs(t *testing.T) {
	m := growt.New[string, string]()
	defer m.Close()
	h := m.Handle()
	h.Insert("key", "v0")
	if n := testing.AllocsPerRun(1000, func() { h.Find("key") }); n != 0 {
		t.Errorf("Find allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.InsertOrUpdate("key", "v1", growt.Replace[string]) }); n > 1 {
		t.Errorf("InsertOrUpdate on a present key allocates %v times per call", n)
	}
}
