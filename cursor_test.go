package growt_test

// Cursor conformance: Map.RangeFrom must, on a quiescent map, visit
// every key exactly once across a batched walk — the resume never
// re-visits and never skips a stable key — on both key routes (word,
// and generic with string and named-type keys). Under a concurrent
// migration the guarantee weakens to at-least-once for stable keys (the
// generation tag restarts the retired table's phase), which the
// forced-migration test pins.

import (
	"fmt"
	"testing"

	growt "repro"
)

// walkBatched drives RangeFrom to completion in batches of batch,
// invoking visit for every element surfaced. It fails the test if the
// walk does not terminate.
func walkBatched[K comparable, V any](t *testing.T, m *growt.Map[K, V], batch int, visit func(K, V)) {
	t.Helper()
	var cur growt.Cursor
	for calls := 0; ; calls++ {
		if calls > 1<<20 {
			t.Fatal("cursor walk did not terminate")
		}
		seen := 0
		next, wrapped := m.RangeFrom(cur, func(k K, v V) bool {
			visit(k, v)
			seen++
			return seen < batch
		})
		if wrapped {
			return
		}
		cur = next
	}
}

// checkExactlyOnce populates m with keys, then walks it with several
// batch sizes asserting each walk surfaces every key exactly once.
func checkExactlyOnce[K comparable](t *testing.T, m *growt.Map[K, uint64], keys map[K]uint64) {
	t.Helper()
	for k, v := range keys {
		m.Store(k, v)
	}
	for _, batch := range []int{1, 3, 64, len(keys) + 1} {
		visits := make(map[K]int, len(keys))
		walkBatched(t, m, batch, func(k K, v uint64) {
			if want, ok := keys[k]; !ok || v != want {
				t.Fatalf("batch %d surfaced unknown or corrupt entry %v=%d", batch, k, v)
			}
			visits[k]++
		})
		for k := range keys {
			switch visits[k] {
			case 0:
				t.Fatalf("batch %d skipped stable key %v", batch, k)
			case 1:
			default:
				t.Fatalf("batch %d re-visited key %v (%d times) on a quiescent map", batch, k, visits[k])
			}
		}
		if len(visits) != len(keys) {
			t.Fatalf("batch %d visited %d keys, want %d", batch, len(visits), len(keys))
		}
	}
}

func TestCursorExactlyOnceWordRoute(t *testing.T) {
	m := growt.New[uint64, uint64]()
	defer m.Close()
	keys := make(map[uint64]uint64)
	for i := uint64(1); i <= 200; i++ {
		keys[i*2654435761] = i
	}
	// The §5.6 special keys live in FullKeys' third walk phase: cover
	// the segment boundaries too.
	keys[0] = 1000
	keys[1<<63-1] = 1001
	checkExactlyOnce(t, m, keys)
}

func TestCursorExactlyOnceStringRoute(t *testing.T) {
	m := growt.New[string, uint64]()
	defer m.Close()
	keys := make(map[string]uint64)
	for i := uint64(1); i <= 200; i++ {
		keys[fmt.Sprintf("key-%04d", i)] = i
	}
	checkExactlyOnce(t, m, keys)
}

func TestCursorExactlyOnceGenericRoute(t *testing.T) {
	m := growt.New[nodeID, uint64]() // named integer type: the generic route
	defer m.Close()
	keys := make(map[nodeID]uint64)
	for i := uint64(1); i <= 200; i++ {
		keys[nodeID(i*0x9E3779B9)] = i
	}
	checkExactlyOnce(t, m, keys)
}

// TestCursorResumesAcrossMigration takes a cursor mid-walk, forces the
// growing word core through migrations by bulk insertion, then resumes:
// every stable key (present before the walk began, never deleted) must
// be surfaced at least once over the whole walk. Re-visits are legal —
// the migrated table's generation retires the cursor and the phase
// restarts — but a skipped stable key is a lost entry.
func TestCursorResumesAcrossMigration(t *testing.T) {
	m := growt.New[uint64, uint64](growt.WithCapacity(4096))
	defer m.Close()

	const stable = 300
	for i := uint64(1); i <= stable; i++ {
		m.Store(i, i)
	}

	seen := make(map[uint64]bool)
	record := func(k, v uint64) {
		if k <= stable {
			if v != k {
				t.Fatalf("stable key %d surfaced corrupt value %d", k, v)
			}
			seen[k] = true
		}
	}

	// Walk a first slice, then park the cursor.
	n := 0
	cur, wrapped := m.RangeFrom(growt.Cursor{}, func(k, v uint64) bool {
		record(k, v)
		n++
		return n < 25
	})
	if wrapped {
		t.Fatal("setup: first batch already exhausted the walk")
	}

	// Force the core through growth: well past the 4096-cell start.
	h := m.Handle()
	for i := uint64(1_000_000); i < 1_040_000; i++ {
		h.Insert(i, i)
	}

	// Resume against the migrated table until the walk wraps.
	for calls := 0; !wrapped; calls++ {
		if calls > 1<<20 {
			t.Fatal("resumed walk did not terminate")
		}
		n = 0
		cur, wrapped = m.RangeFrom(cur, func(k, v uint64) bool {
			record(k, v)
			n++
			return n < 1024
		})
	}

	for i := uint64(1); i <= stable; i++ {
		if !seen[i] {
			t.Fatalf("stable key %d skipped across the migration resume", i)
		}
	}
}

// TestCursorAcrossRetiredPages: the generic route retires an arena page
// once every entry of it is dead and dropped, and a cursor is an index
// into that arena. A walk parked inside a page that is then retired, and
// batched walks over retired pages in the middle of the arena — with
// partly dead pages around them — must surface every stable key exactly
// once.
func TestCursorAcrossRetiredPages(t *testing.T) {
	m := growt.New[string, uint64]()
	defer m.Close()
	// One goroutine inserting fresh keys fills the arena in order: key i
	// sits in page i/256.
	const n = 12 * 256
	name := func(i uint64) string { return fmt.Sprintf("key-%05d", i) }
	for i := uint64(0); i < n; i++ {
		m.Store(name(i), i)
	}
	visits := make(map[string]int)
	seen := 0
	cur, wrapped := m.RangeFrom(growt.Cursor{}, func(k string, _ uint64) bool {
		visits[k]++
		seen++
		return seen < 300 // parks in page 1
	})
	if wrapped {
		t.Fatal("setup: first batch already exhausted the walk")
	}

	retired := readReclaimed().retired
	keys := make(map[string]uint64)
	for i := uint64(0); i < n; i++ {
		switch page := i / 256; {
		case page%3 == 1, page == 5, i%7 == 0: // whole pages, two in a row, and a sprinkle
			m.Delete(name(i))
		default:
			keys[name(i)] = i
		}
	}
	if got := readReclaimed().retired - retired; got != 5 {
		t.Fatalf("%d pages retired, want 5 (pages 1, 4, 5, 7, 10)", got)
	}

	for !wrapped {
		cur, wrapped = m.RangeFrom(cur, func(k string, _ uint64) bool {
			visits[k]++
			return true
		})
	}
	for k := range keys {
		if visits[k] != 1 {
			t.Fatalf("stable key %s visited %d times by the walk parked across the retirement", k, visits[k])
		}
	}
	checkExactlyOnce(t, m, keys)
}
