package growt_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	growt "repro"
)

// cadConformance drives CompareAndDelete through one typed map
// instantiation: equal value deletes, different value refuses, absent
// key refuses, and a deleted key is re-insertable.
func cadConformance[K comparable, V comparable](t *testing.T, m *growt.Map[K, V],
	key func(i int) K, val func(i int) V) {
	t.Helper()
	defer m.Close()
	h := m.Handle()

	for i := 0; i < 100; i++ {
		if !h.Insert(key(i), val(i)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	// Wrong value: refuse, leave the element.
	for i := 0; i < 100; i++ {
		if h.CompareAndDelete(key(i), val(i+1)) {
			t.Fatalf("CAD %d deleted under a mismatched value", i)
		}
		if v, ok := h.Find(key(i)); !ok || v != val(i) {
			t.Fatalf("CAD mismatch disturbed element %d: %v %v", i, v, ok)
		}
	}
	// Right value: delete exactly once.
	for i := 0; i < 100; i++ {
		if !h.CompareAndDelete(key(i), val(i)) {
			t.Fatalf("CAD %d refused the stored value", i)
		}
		if h.CompareAndDelete(key(i), val(i)) {
			t.Fatalf("CAD %d deleted twice", i)
		}
		if _, ok := h.Find(key(i)); ok {
			t.Fatalf("element %d survived its CAD", i)
		}
	}
	// Absent key, handle-free path, and re-insert after delete.
	if m.CompareAndDelete(key(7), val(7)) {
		t.Fatal("CAD succeeded on an absent key")
	}
	m.Store(key(7), val(8))
	if m.CompareAndDelete(key(7), val(7)) {
		t.Fatal("handle-free CAD deleted under a mismatched value")
	}
	if !m.CompareAndDelete(key(7), val(8)) {
		t.Fatal("handle-free CAD refused the stored value")
	}
}

func TestCompareAndDeleteConformance(t *testing.T) {
	t.Run("word/inline-values", func(t *testing.T) {
		cadConformance(t, growt.New[uint64, uint32](),
			func(i int) uint64 { return uint64(i) * 3 }, // includes key 0
			func(i int) uint32 { return uint32(i) + 1 })
	})
	t.Run("integer-key/string-values", func(t *testing.T) {
		cadConformance(t, growt.New[int, string](),
			func(i int) int { return i - 50 }, // negatives too
			func(i int) string { return fmt.Sprintf("value-%d", i) })
	})
	t.Run("word/bounded", func(t *testing.T) {
		cadConformance(t, growt.New[uint64, uint64](growt.WithBounded(4096)),
			func(i int) uint64 { return uint64(i) + 1 },
			func(i int) uint64 { return uint64(i) * 7 })
	})
	t.Run("string-route", func(t *testing.T) {
		cadConformance(t, growt.New[string, string](),
			func(i int) string { return fmt.Sprintf("key-%d", i) },
			func(i int) string { return fmt.Sprintf("value-%d", i) })
	})
	t.Run("generic-route", func(t *testing.T) {
		cadConformance(t, growt.New[point, string](),
			func(i int) point { return point{int32(i), int32(-i)} },
			func(i int) string { return fmt.Sprintf("value-%d", i) })
	})
}

// TestCompareAndDeleteExactlyOnce is the atomicity test: many racing
// CompareAndDeletes of the same ⟨key, value⟩ must succeed exactly once
// per stored generation, across every key route.
func TestCompareAndDeleteExactlyOnce(t *testing.T) {
	run := func(t *testing.T, delete func(round uint64) bool, store func(round uint64)) {
		const rounds, racers = 200, 8
		var succeeded atomic.Uint64
		for r := uint64(0); r < rounds; r++ {
			store(r)
			var wg sync.WaitGroup
			for w := 0; w < racers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if delete(r) {
						succeeded.Add(1)
					}
				}()
			}
			wg.Wait()
		}
		if got := succeeded.Load(); got != rounds {
			t.Fatalf("CAD succeeded %d times over %d generations", got, rounds)
		}
	}
	t.Run("word", func(t *testing.T) {
		m := growt.New[uint64, uint64]()
		defer m.Close()
		run(t, func(r uint64) bool { return m.CompareAndDelete(r%17, r) },
			func(r uint64) { m.Store(r%17, r) })
	})
	t.Run("integer-key", func(t *testing.T) {
		m := growt.New[uint64, string]()
		defer m.Close()
		run(t, func(r uint64) bool { return m.CompareAndDelete(r%17, fmt.Sprint(r)) },
			func(r uint64) { m.Store(r%17, fmt.Sprint(r)) })
	})
	t.Run("generic", func(t *testing.T) {
		m := growt.New[point, string]()
		defer m.Close()
		run(t, func(r uint64) bool {
			return m.CompareAndDelete(point{int32(r % 17), 0}, fmt.Sprint(r))
		}, func(r uint64) { m.Store(point{int32(r % 17), 0}, fmt.Sprint(r)) })
	})
	t.Run("string", func(t *testing.T) {
		m := growt.New[string, string]()
		defer m.Close()
		run(t, func(r uint64) bool {
			return m.CompareAndDelete(fmt.Sprint(r%17), fmt.Sprint(r))
		}, func(r uint64) { m.Store(fmt.Sprint(r%17), fmt.Sprint(r)) })
	})
}

// TestCompareAndDeleteVsOverwrite races CAD of a known-stale value
// against an overwrite: whichever order they land in, the element must
// never end up deleted while holding the fresh value — the invariant
// the cache layer's expiry races are built on.
func TestCompareAndDeleteVsOverwrite(t *testing.T) {
	m := growt.New[uint64, string]()
	defer m.Close()
	const rounds = 500
	for r := 0; r < rounds; r++ {
		k := uint64(r % 13)
		m.Store(k, "stale")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.CompareAndDelete(k, "stale")
		}()
		go func() {
			defer wg.Done()
			m.Store(k, "fresh")
		}()
		wg.Wait()
		// Whatever the interleaving, "fresh" must survive: the CAD either
		// removed "stale" before the store (which then re-inserted) or
		// refused after it — it may never remove "fresh".
		if v, ok := m.Load(k); !ok || v != "fresh" {
			t.Fatalf("round %d: surviving value %q (present=%v), want %q", r, v, ok, "fresh")
		}
		// Reset: the key may or may not exist; drop it.
		m.Delete(k)
	}
}
