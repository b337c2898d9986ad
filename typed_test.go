package growt_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	growt "repro"
)

// point is the struct-key instantiation exercised by the conformance
// suite: it takes the generic hash-codec route with the default
// (reflect-walk) hasher.
type point struct{ X, Y int32 }

// nodeID is a named integer type; named types fall off the built-in fast
// paths onto the generic route, optionally with a user hasher.
type nodeID uint64

// conformance drives one typed map instantiation through every primitive
// of §4 plus the facade's handle-free methods, against a model map.
func conformance[K comparable, V comparable](t *testing.T, m *growt.Map[K, V],
	key func(i int) K, val func(i int) V) {
	t.Helper()
	defer m.Close()
	const n = 300
	h := m.Handle()

	// Insert wins once; duplicate inserts refuse.
	for i := 0; i < n; i++ {
		if !h.Insert(key(i), val(i)) {
			t.Fatalf("insert %v", key(i))
		}
	}
	for i := 0; i < n; i++ {
		if h.Insert(key(i), val(i+1)) {
			t.Fatalf("duplicate insert %v succeeded", key(i))
		}
	}

	// Find returns stored values; absent keys miss.
	for i := 0; i < n; i++ {
		if v, ok := h.Find(key(i)); !ok || v != val(i) {
			t.Fatalf("find %v = %v,%v want %v", key(i), v, ok, val(i))
		}
	}
	for i := n; i < n+20; i++ {
		if _, ok := h.Find(key(i)); ok {
			t.Fatalf("find absent %v succeeded", key(i))
		}
	}

	// ApproxSize is within the §5.2 estimator's tolerance (the generic
	// route is exact, the word route is approximate).
	if s := m.ApproxSize(); s < n/2 || s > 2*n {
		t.Fatalf("approx size %d for %d elements", s, n)
	}

	// Functional update (§4): present keys update, absent keys refuse.
	for i := 0; i < n; i++ {
		if !h.Update(key(i), val(i+1), growt.Replace[V]) {
			t.Fatalf("update %v", key(i))
		}
		if v, _ := h.Find(key(i)); v != val(i+1) {
			t.Fatalf("update %v left %v want %v", key(i), v, val(i+1))
		}
	}
	if h.Update(key(n+5), val(0), growt.Replace[V]) {
		t.Fatal("update of absent key succeeded")
	}

	// InsertOrUpdate: update path on present keys, insert path on absent.
	for i := 0; i < n; i++ {
		if h.InsertOrUpdate(key(i), val(i), growt.Replace[V]) {
			t.Fatalf("insertOrUpdate %v reported insert for present key", key(i))
		}
	}
	if !h.InsertOrUpdate(key(n), val(n), growt.Replace[V]) {
		t.Fatal("insertOrUpdate of absent key reported update")
	}

	// Range sees exactly the live elements, with their current values.
	seen := map[K]V{}
	m.Range(func(k K, v V) bool { seen[k] = v; return true })
	if len(seen) != n+1 {
		t.Fatalf("range saw %d elements, want %d", len(seen), n+1)
	}
	for i := 0; i <= n; i++ {
		if seen[key(i)] != val(i) {
			t.Fatalf("range %v = %v want %v", key(i), seen[key(i)], val(i))
		}
	}

	// Early-exit Range stops.
	calls := 0
	m.Range(func(K, V) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("range after false continued: %d calls", calls)
	}

	// Delete removes; double delete refuses; deleted keys revive.
	for i := 0; i < n; i += 2 {
		if !h.Delete(key(i)) {
			t.Fatalf("delete %v", key(i))
		}
		if h.Delete(key(i)) {
			t.Fatalf("double delete %v succeeded", key(i))
		}
		if _, ok := h.Find(key(i)); ok {
			t.Fatalf("deleted %v still found", key(i))
		}
	}
	if !h.Insert(key(0), val(7)) {
		t.Fatal("re-insert of deleted key refused")
	}
	if v, ok := h.Find(key(0)); !ok || v != val(7) {
		t.Fatalf("revived key(0) = %v,%v", v, ok)
	}

	// CompareAndSwap: wrong old refuses and leaves the value, right old
	// swaps, absent key refuses.
	if h.CompareAndSwap(key(1), val(999), val(5)) {
		t.Fatal("cas with wrong old value succeeded")
	}
	if v, _ := h.Find(key(1)); v != val(1) {
		t.Fatalf("failed cas changed the value to %v", v)
	}
	if !h.CompareAndSwap(key(1), val(1), val(5)) {
		t.Fatal("cas with right old value refused")
	}
	if v, _ := h.Find(key(1)); v != val(5) {
		t.Fatalf("cas left %v want %v", v, val(5))
	}
	if h.CompareAndSwap(key(n+50), val(0), val(1)) {
		t.Fatal("cas of absent key succeeded")
	}

	// LoadAndDelete: returns the removed value; absent keys miss; the
	// key is gone afterwards.
	if v, ok := h.LoadAndDelete(key(1)); !ok || v != val(5) {
		t.Fatalf("loadAndDelete = %v,%v want %v,true", v, ok, val(5))
	}
	if _, ok := h.Find(key(1)); ok {
		t.Fatal("loadAndDelete left the key")
	}
	if _, ok := h.LoadAndDelete(key(1)); ok {
		t.Fatal("loadAndDelete of absent key succeeded")
	}

	// Handle-free sync.Map-shaped surface.
	m.Store(key(n+1), val(1))
	if v, ok := m.Load(key(n + 1)); !ok || v != val(1) {
		t.Fatalf("store/load = %v,%v", v, ok)
	}
	m.Store(key(n+1), val(2)) // overwrite
	if v, _ := m.Load(key(n + 1)); v != val(2) {
		t.Fatalf("store overwrite left %v", v)
	}
	if actual, loaded := m.LoadOrStore(key(n+1), val(3)); !loaded || actual != val(2) {
		t.Fatalf("loadOrStore present = %v,%v", actual, loaded)
	}
	if actual, loaded := m.LoadOrStore(key(n+2), val(3)); loaded || actual != val(3) {
		t.Fatalf("loadOrStore absent = %v,%v", actual, loaded)
	}
	if !m.Compute(key(n+3), val(4), growt.Replace[V]) {
		t.Fatal("compute insert path")
	}
	if m.Compute(key(n+3), val(5), growt.Replace[V]) {
		t.Fatal("compute update path reported insert")
	}
	if v, _ := m.Load(key(n + 3)); v != val(5) {
		t.Fatalf("compute left %v", v)
	}
	if !m.Delete(key(n + 3)) {
		t.Fatal("handle-free delete")
	}
	m.Store(key(n+4), val(1))
	if !m.CompareAndSwap(key(n+4), val(1), val(2)) {
		t.Fatal("handle-free cas refused")
	}
	if v, ok := m.LoadAndDelete(key(n + 4)); !ok || v != val(2) {
		t.Fatalf("handle-free loadAndDelete = %v,%v", v, ok)
	}
	if _, ok := m.LoadAndDelete(key(n + 4)); ok {
		t.Fatal("handle-free loadAndDelete of absent key succeeded")
	}
}

func TestTypedConformance(t *testing.T) {
	u64key := func(i int) uint64 { return uint64(i) * 0x9E3779B9 } // includes 0
	u64val := func(i int) uint64 { return uint64(i) + 1 }
	strkey := func(i int) string { return fmt.Sprintf("key-%d", i) }
	ptkey := func(i int) point { return point{X: int32(i), Y: int32(-i)} }
	strval := func(i int) string { return fmt.Sprintf("value-%d", i) }

	t.Run("uint64-uint64-default", func(t *testing.T) {
		conformance(t, growt.New[uint64, uint64](), u64key, u64val)
	})
	t.Run("uint64-uint64-usgrow", func(t *testing.T) {
		conformance(t, growt.New[uint64, uint64](growt.WithStrategy(growt.USGrow)), u64key, u64val)
	})
	t.Run("uint64-uint64-pool", func(t *testing.T) {
		conformance(t, growt.New[uint64, uint64](growt.WithStrategy(growt.PSGrow)), u64key, u64val)
	})
	t.Run("uint64-uint64-bounded", func(t *testing.T) {
		conformance(t, growt.New[uint64, uint64](growt.WithBounded(2000)), u64key, u64val)
	})
	t.Run("string-uint64", func(t *testing.T) {
		conformance(t, growt.New[string, uint64](), strkey, u64val)
	})
	t.Run("uint64-string", func(t *testing.T) { // generic route, default integer hasher
		conformance(t, growt.New[uint64, string](), u64key, strval)
	})
	t.Run("string-string-arena-values", func(t *testing.T) {
		conformance(t, growt.New[string, string](growt.WithBounded(2000)), strkey, strval)
	})
	t.Run("struct-string", func(t *testing.T) {
		conformance(t, growt.New[point, string](), ptkey, strval)
	})
	t.Run("struct-struct", func(t *testing.T) {
		conformance(t, growt.New[point, point](), ptkey, func(i int) point {
			return point{X: int32(i + 1), Y: int32(i + 2)}
		})
	})
	t.Run("named-key-with-hasher", func(t *testing.T) {
		m := growt.New[nodeID, uint64](growt.WithHasher(func(k nodeID) uint64 {
			return uint64(k) * 0xff51afd7ed558ccd
		}))
		conformance(t, m, func(i int) nodeID { return nodeID(i) }, u64val)
	})
	t.Run("int32-int16", func(t *testing.T) {
		conformance(t, growt.New[int32, int16](),
			func(i int) int32 { return int32(i - 150) }, // negative keys
			func(i int) int16 { return int16(i - 200) }) // negative values
	})
	t.Run("bool-key", func(t *testing.T) {
		m := growt.New[bool, int]()
		defer m.Close()
		m.Store(true, 1)
		m.Store(false, 2)
		if v, _ := m.Load(true); v != 1 {
			t.Fatal("bool key true")
		}
		if v, _ := m.Load(false); v != 2 {
			t.Fatal("bool key false")
		}
	})
}

// TestTypedWideIntegerValues drives the word route's inline/arena escape
// split: 64-bit values from 2^61 up (and all negatives) must survive the
// indirection.
func TestTypedWideIntegerValues(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		m := growt.New[uint64, uint64]()
		defer m.Close()
		for _, v := range []uint64{0, 1, 1<<61 - 1, 1 << 61, 1 << 62, 1 << 63, ^uint64(0)} {
			m.Store(42, v)
			if got, ok := m.Load(42); !ok || got != v {
				t.Fatalf("roundtrip %#x = %#x,%v", v, got, ok)
			}
		}
	})
	t.Run("int64-negative", func(t *testing.T) {
		m := growt.New[int64, int64]()
		defer m.Close()
		for _, v := range []int64{-1, -1 << 62, 9e18, -9e18, 0, 5} {
			k := v * 3 // negative keys too (full-key wrapper)
			m.Store(k, v)
			if got, ok := m.Load(k); !ok || got != v {
				t.Fatalf("roundtrip k=%d v=%d = %d,%v", k, v, got, ok)
			}
		}
	})
	t.Run("escaped-update", func(t *testing.T) {
		// Atomic aggregation across the inline/escape boundary.
		m := growt.New[uint64, uint64]()
		defer m.Close()
		m.Store(1, 1<<61-2)
		for i := 0; i < 4; i++ {
			m.Compute(1, 1, growt.Add) // crosses 2^61 on the 2nd add
		}
		if v, _ := m.Load(1); v != 1<<61+2 {
			t.Fatalf("escaped aggregation = %#x", v)
		}
	})
}

// TestTypedFloatZeroStructKey: ±0.0 compare equal, so struct keys
// containing a negative-zero float must hash onto the same entry as
// their positive-zero twin (regression: the fmt-fingerprint hasher
// printed "{0}" vs "{-0}").
func TestTypedFloatZeroStructKey(t *testing.T) {
	type fkey struct{ F float64 }
	negZero := math.Copysign(0, -1)
	m := growt.New[fkey, int]()
	defer m.Close()
	m.Store(fkey{0}, 1)
	if v, ok := m.Load(fkey{negZero}); !ok || v != 1 {
		t.Fatalf("Load({-0}) = %v,%v after Store({+0}, 1)", v, ok)
	}
	m.Store(fkey{negZero}, 2) // must overwrite, not duplicate
	n := 0
	m.Range(func(fkey, int) bool { n++; return true })
	if n != 1 {
		t.Fatalf("±0 keys split into %d entries", n)
	}
	if !m.Delete(fkey{0}) {
		t.Fatal("delete via +0 after store via -0")
	}
	if _, ok := m.Load(fkey{negZero}); ok {
		t.Fatal("key survived delete")
	}
}

// TestTypedInterfaceKeys: interface types satisfy comparable as type
// arguments (Go 1.20+); ==-equal interface keys must hash onto one entry
// even across float ±0 (regression: the fmt fallback printed "0" vs
// "-0" for any-boxed floats).
func TestTypedInterfaceKeys(t *testing.T) {
	m := growt.New[any, int]()
	defer m.Close()
	m.Store(any(0.0), 1)
	if v, ok := m.Load(any(math.Copysign(0, -1))); !ok || v != 1 {
		t.Fatalf("Load(any(-0)) = %v,%v after Store(any(+0))", v, ok)
	}
	m.Store(any("s"), 2)
	m.Store(any(uint64(7)), 3)
	m.Store(any(nil), 4)
	if v, _ := m.Load(any("s")); v != 2 {
		t.Fatal("string-typed any key")
	}
	if v, _ := m.Load(any(uint64(7))); v != 3 {
		t.Fatal("uint64-typed any key")
	}
	if v, _ := m.Load(any(nil)); v != 4 {
		t.Fatal("nil any key")
	}
	// int(7) and uint64(7) are different dynamic types, hence different keys.
	if _, ok := m.Load(any(int(7))); ok {
		t.Fatal("int(7) must not alias uint64(7)")
	}
	n := 0
	m.Range(func(any, int) bool { n++; return true })
	if n != 4 {
		t.Fatalf("range saw %d entries, want 4", n)
	}
}

// TestTypedRangeMutation: a Range callback may mutate the map, including
// the full-key wrapper's special-slot keys (0, 2^63-1, ...) — regression
// for Range holding the special-slot lock across the callback.
func TestTypedRangeMutation(t *testing.T) {
	m := growt.New[uint64, uint64]()
	defer m.Close()
	m.Store(0, 1) // key 0 lives in a FullKeys special slot
	m.Store(^uint64(0), 2)
	deleted := 0
	m.Range(func(k, _ uint64) bool {
		if m.Delete(k) {
			deleted++
		}
		return true
	})
	if deleted != 2 {
		t.Fatalf("deleted %d of 2 during Range", deleted)
	}
	if s := m.ApproxSize(); s != 0 {
		t.Fatalf("size %d after deleting everything", s)
	}
}

// TestTypedHasherMismatch checks the descriptive panic when WithHasher's
// key type disagrees with the map's.
func TestTypedHasherMismatch(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic for mismatched hasher")
		}
	}()
	growt.New[point, int](growt.WithHasher(func(k uint64) uint64 { return k }))
}

// raceSmoke hammers the handle-free Load/Store/Compute/Delete path from
// many goroutines on overlapping keys; run with -race this is the data
// race check of the pooled-handle discipline and both codec layers. The
// per-key increment totals are verified exactly.
func raceSmoke[K comparable](t *testing.T, m *growt.Map[K, uint64], key func(i int) K) {
	t.Helper()
	defer m.Close()
	const (
		workers = 8
		keys    = 64
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := key((r + w) % keys)
				m.Compute(k, 1, growt.Add)
				m.Load(k)
				if r%16 == w%16 {
					// Churn a private key so deletes never disturb the
					// counted increments.
					priv := key(keys + w)
					m.Store(priv, uint64(r))
					m.LoadOrStore(priv, 1)
					m.Delete(priv)
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < keys; i++ {
		v, ok := m.Load(key(i))
		if !ok {
			t.Fatalf("counter %d lost", i)
		}
		total += v
	}
	if want := uint64(workers * rounds); total != want {
		t.Fatalf("lost updates: total %d want %d", total, want)
	}
}

func TestTypedConcurrentSmoke(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		raceSmoke(t, growt.New[uint64, uint64](), func(i int) uint64 { return uint64(i) })
	})
	t.Run("string", func(t *testing.T) {
		raceSmoke(t, growt.New[string, uint64](), func(i int) string {
			return fmt.Sprintf("counter-%d", i)
		})
	})
	t.Run("struct", func(t *testing.T) {
		raceSmoke(t, growt.New[point, uint64](), func(i int) point {
			return point{X: int32(i), Y: int32(i * 7)}
		})
	})
}

// loadAndDeleteTokens proves LoadAndDelete is atomic, not find-then-
// delete: one inserter feeds unique tokens through a single key (Insert
// succeeds only while the key is absent), several deleters race
// LoadAndDelete on it. Every token must be collected exactly once — a
// non-atomic implementation can return token A while its delete
// actually removes a later token B, which collects A twice and B never.
func loadAndDeleteTokens[K comparable](t *testing.T, m *growt.Map[K, uint64], k K) {
	t.Helper()
	defer m.Close()
	const (
		tokens   = 2000
		deleters = 3
	)
	coll := make(chan uint64, tokens)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // inserter
		defer wg.Done()
		h := m.Handle()
		for tok := uint64(1); tok <= tokens; {
			if h.Insert(k, tok) {
				tok++
			} else {
				// The token is still unclaimed; hand the CPU to a deleter
				// (on GOMAXPROCS=1 a tight spin starves them for whole
				// scheduler slices).
				runtime.Gosched()
			}
		}
	}()
	for d := 0; d < deleters; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Handle()
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ok := h.LoadAndDelete(k); ok {
					coll <- v
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	seen := make(map[uint64]bool, tokens)
	for i := 0; i < tokens; i++ {
		v := <-coll
		if seen[v] {
			t.Errorf("token %d collected twice — LoadAndDelete returned a value it did not remove", v)
			break
		}
		seen[v] = true
	}
	close(done)
	wg.Wait()
	if len(seen) != tokens {
		t.Fatalf("collected %d unique tokens, want %d", len(seen), tokens)
	}
}

func TestTypedLoadAndDeleteAtomic(t *testing.T) {
	t.Run("word", func(t *testing.T) {
		loadAndDeleteTokens(t, growt.New[uint64, uint64](), uint64(12345))
	})
	t.Run("word-special-slot", func(t *testing.T) {
		// Key 0 lives in the full-key wrapper's mutex-backed special slot.
		loadAndDeleteTokens(t, growt.New[uint64, uint64](), uint64(0))
	})
	t.Run("word-bounded", func(t *testing.T) {
		loadAndDeleteTokens(t, growt.New[uint64, uint64](growt.WithBounded(64)), uint64(7))
	})
	t.Run("string", func(t *testing.T) {
		loadAndDeleteTokens(t, growt.New[string, uint64](), "the-key")
	})
	t.Run("generic", func(t *testing.T) {
		loadAndDeleteTokens(t, growt.New[point, uint64](), point{X: 3, Y: 4})
	})
}

// casCounter drives an optimistic-concurrency counter entirely through
// CompareAndSwap: each success is one unique transition, so the final
// value counts them exactly; lost or phantom swaps change the total.
func casCounter[K comparable](t *testing.T, m *growt.Map[K, uint64], k K) {
	t.Helper()
	defer m.Close()
	const (
		workers   = 4
		swapsEach = 500
	)
	m.Store(k, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Handle()
			for done := 0; done < swapsEach; {
				cur, ok := h.Find(k)
				if !ok {
					t.Error("counter key vanished")
					return
				}
				if h.CompareAndSwap(k, cur, cur+1) {
					done++
				}
			}
		}()
	}
	wg.Wait()
	if v, _ := m.Load(k); v != workers*swapsEach {
		t.Fatalf("cas transitions lost: %d want %d", v, workers*swapsEach)
	}
}

func TestTypedCompareAndSwapAtomic(t *testing.T) {
	t.Run("word", func(t *testing.T) {
		casCounter(t, growt.New[uint64, uint64](), uint64(99))
	})
	t.Run("string", func(t *testing.T) {
		casCounter(t, growt.New[string, uint64](), "ctr")
	})
	t.Run("generic", func(t *testing.T) {
		casCounter(t, growt.New[point, uint64](), point{X: 1, Y: 2})
	})
}

// TestTypedCompareAndSwapArenaValues drives CAS across the inline/arena
// escape boundary: values ≥ 2^61 live behind the indirection arena, so
// equality must be decided on decoded values, not on slot references.
func TestTypedCompareAndSwapArenaValues(t *testing.T) {
	m := growt.New[uint64, uint64]()
	defer m.Close()
	big := uint64(1)<<61 + 7 // escapes to the arena
	m.Store(1, big)
	if !m.CompareAndSwap(1, big, big+1) {
		t.Fatal("cas on arena-escaped value refused despite equal decoded values")
	}
	if v, _ := m.Load(1); v != big+1 {
		t.Fatalf("cas left %#x", v)
	}
	if m.CompareAndSwap(1, big, big+2) {
		t.Fatal("cas with stale arena value succeeded")
	}
	// And string values under an integer key (the generic route).
	s := growt.New[uint64, string]()
	defer s.Close()
	s.Store(1, "alpha")
	if !s.CompareAndSwap(1, "alpha", "beta") {
		t.Fatal("cas on string value refused")
	}
	if v, ok := s.LoadAndDelete(1); !ok || v != "beta" {
		t.Fatalf("loadAndDelete string = %q,%v", v, ok)
	}
}

// TestTypedCompareAndSwapUncomparablePanics: sync.Map parity — CAS with
// an uncomparable old value panics. The panic must fire before any
// table lock is entered and must not strand the pooled handle, so the
// map stays fully usable after recovering.
func TestTypedCompareAndSwapUncomparablePanics(t *testing.T) {
	m := growt.New[uint64, []byte]()
	defer m.Close()
	m.Store(1, []byte("x"))
	for i := 0; i < 3; i++ { // repeated panics must not leak pooled handles
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for uncomparable old value")
				}
			}()
			m.CompareAndSwap(1, []byte("x"), []byte("y"))
		}()
	}
	// No lock or handle was stranded: normal ops still work.
	m.Store(1, []byte("z"))
	if v, ok := m.Load(1); !ok || string(v) != "z" {
		t.Fatalf("map unusable after recovered panics: %q, %v", v, ok)
	}
	if v, ok := m.LoadAndDelete(1); !ok || string(v) != "z" {
		t.Fatalf("loadAndDelete after recovered panics: %q, %v", v, ok)
	}
}

// TestTypedConcurrentHandles is the explicit-handle analogue: one handle
// per goroutine, as the paper prescribes (§5.1).
func TestTypedConcurrentHandles(t *testing.T) {
	m := growt.New[uint64, uint64](growt.WithStrategy(growt.USGrow))
	defer m.Close()
	const workers, perKey = 4, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Handle()
			for j := 0; j < perKey; j++ {
				h.InsertOrUpdate(uint64(j%100), 1, growt.Add)
			}
		}()
	}
	wg.Wait()
	h := m.Handle()
	var sum uint64
	for k := uint64(0); k < 100; k++ {
		v, _ := h.Find(k)
		sum += v
	}
	if sum != workers*perKey {
		t.Fatalf("sum %d want %d", sum, workers*perKey)
	}
}

// TestStringKeysGrow: an unconfigured string-keyed map is a growing
// table like every other — far past the old fixed 2^16 bound, every key
// stays findable and the core has migrated.
func TestStringKeysGrow(t *testing.T) {
	const n = 300_000
	m := growt.New[string, uint64]()
	defer m.Close()
	h := m.Handle()
	for i := 0; i < n; i++ {
		if !h.Insert(fmt.Sprint("key-", i), uint64(i)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := h.Find(fmt.Sprint("key-", i)); !ok || v != uint64(i) {
			t.Fatalf("find %d = %d,%v", i, v, ok)
		}
	}
	if m.Generation() == 0 {
		t.Fatal("300000 keys from a 4096-cell start without a single migration")
	}
	if s := m.ApproxSize(); s != n {
		t.Fatalf("size %d want %d", s, n)
	}
}

// TestStringKeysBounded: WithBounded bounds a string-keyed map exactly
// as it bounds every other key type — no growth, panic when full.
func TestStringKeysBounded(t *testing.T) {
	m := growt.New[string, uint64](growt.WithBounded(64))
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("bounded string-keyed map accepted 10000 keys")
		}
		if g := m.Generation(); g != 0 {
			t.Fatalf("bounded map migrated %d times", g)
		}
	}()
	for i := 0; i < 10_000; i++ {
		m.Store(fmt.Sprint(i), 1)
	}
}

// TestStringKeyHasher: WithHasher[string] is honoured (the old string
// route silently ignored it).
func TestStringKeyHasher(t *testing.T) {
	calls := 0
	m := growt.New[string, uint64](growt.WithHasher(func(s string) uint64 {
		calls++
		return uint64(len(s))
	}))
	defer m.Close()
	m.Store("a", 1)
	m.Store("b", 2) // same hash: resolved on the stored keys
	if v, ok := m.Load("b"); !ok || v != 2 || calls == 0 {
		t.Fatalf("Load(b) = %d,%v after %d hasher calls", v, ok, calls)
	}
}

// TestSessionsBeyondPoolCap: handles are as many as their simultaneous
// holders. One Session more than the 8×GOMAXPROCS the pool used to be
// capped at blocked for good in Map.Session.
func TestSessionsBeyondPoolCap(t *testing.T) {
	m := growt.New[string, int]()
	defer m.Close()
	n := 8*runtime.GOMAXPROCS(0) + 1
	stored, release := make(chan int, n), make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := m.Session()
			defer s.Close()
			s.Store(fmt.Sprint(i), i)
			stored <- i
			<-release // every Session stays open until all have stored
		}(i)
	}
	deadline := time.After(2 * time.Second)
	for got := 0; got < n; got++ {
		select {
		case <-stored:
		case <-deadline:
			t.Fatalf("%d of %d concurrently open Sessions completed a Store within 2s", got, n)
		}
	}
	close(release)
	wg.Wait()
	if got := m.ApproxSize(); got != uint64(n) {
		t.Fatalf("size %d after %d Sessions stored a key each", got, n)
	}
}

// TestSessionUseAfterClosePanics: a closed Session has given its handle
// back, and another holder may have it by now — every operation, the
// Session's own and the Handle's it promotes, must panic at the call
// rather than run on it. Close itself stays idempotent.
func TestSessionUseAfterClosePanics(t *testing.T) {
	m := growt.New[string, int]()
	defer m.Close()
	m.Store("k", 1)
	s := m.Session()
	if v, ok := s.Load("k"); !ok || v != 1 {
		t.Fatalf("open Session: Load = %d, %v", v, ok)
	}
	s.Close()
	s.Close()
	for name, op := range map[string]func(){
		"Load":             func() { s.Load("k") },
		"Store":            func() { s.Store("k", 2) },
		"LoadOrStore":      func() { s.LoadOrStore("k", 2) },
		"Compute":          func() { s.Compute("k", 1, growt.Add[int]) },
		"Find":             func() { s.Find("k") },
		"Insert":           func() { s.Insert("k2", 2) },
		"Update":           func() { s.Update("k", 1, growt.Add[int]) },
		"InsertOrUpdate":   func() { s.InsertOrUpdate("k", 1, growt.Add[int]) },
		"Delete":           func() { s.Delete("k") },
		"LoadAndDelete":    func() { s.LoadAndDelete("k") },
		"CompareAndSwap":   func() { s.CompareAndSwap("k", 1, 2) },
		"CompareAndDelete": func() { s.CompareAndDelete("k", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed Session did not panic", name)
				}
			}()
			op()
		}()
	}
	if v, ok := m.Load("k"); !ok || v != 1 {
		t.Fatalf("a closed Session's operation went through: k = %d, %v", v, ok)
	}
}

// TestFacadeAllocs pins what an operation on a present key allocates: on
// the generic route — a string key, or an integer key with a wide value —
// nothing for a Load and the boxed value for a Store, on the word route
// (inline values) nothing at all — neither the handle-free hop nor the
// typed-to-word update wrapper may cost an allocation.
func TestFacadeAllocs(t *testing.T) {
	g := growt.New[string, string]()
	defer g.Close()
	g.Store("key", "v0")
	iw := growt.New[uint64, string]()
	defer iw.Close()
	iw.Store(7, "v0")
	w := growt.New[uint64, uint64]()
	defer w.Close()
	w.Store(7, 1)
	wh := w.Handle()
	for _, c := range []struct {
		name string
		want float64
		op   func()
	}{
		{"generic Map.Load", 0, func() { g.Load("key") }},
		{"generic Map.Store", 1, func() { g.Store("key", "v1") }},
		{"integer-key wide-value Map.Load", 0, func() { iw.Load(7) }},
		{"integer-key wide-value Map.Store", 1, func() { iw.Store(7, "v1") }},
		{"word Map.Load", 0, func() { w.Load(7) }},
		{"word Map.Store", 0, func() { w.Store(7, 2) }},
		{"word Map.Compute", 0, func() { w.Compute(7, 1, growt.Add[uint64]) }},
		{"word Handle.InsertOrUpdate", 0, func() { wh.InsertOrUpdate(7, 1, growt.Add[uint64]) }},
		{"word Handle.Update", 0, func() { wh.Update(7, 1, growt.Add[uint64]) }},
	} {
		if got := testing.AllocsPerRun(1000, c.op); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}
