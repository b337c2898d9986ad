package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/tables"
)

// TestTargetAllocatedOnce: only the goroutine that arms a migration
// allocates its target table. Two goroutines insert 2^19 keys into one
// growing table; every goroutine whose counter flush crosses the fill
// trigger calls initiate, so an allocation made before the slot is won
// is made by every such racer, and the losers' targets are garbage at
// once (about twice the bytes needed). The bytes allocated over the
// growth must stay within 1.25× the cells of the targets that became
// generations.
func TestTargetAllocatedOnce(t *testing.T) {
	const initial, keys, workers = 4096, 1 << 19, 2
	for _, s := range []Strategy{UA, US} {
		t.Run(s.String(), func(t *testing.T) {
			g := NewGrow(s, initial)
			defer g.Close()
			handles := []tables.Handle{g.Handle(), g.Handle()}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := handles[w]
					for k := uint64(w + 1); k <= keys; k += workers {
						h.Insert(k, k)
					}
				}(w)
			}
			wg.Wait()
			runtime.ReadMemStats(&after)

			// Inserts only: every migration doubles the capacity.
			var targets uint64
			doublings := uint64(0)
			for c := uint64(2 * initial); c <= g.Capacity(); c *= 2 {
				targets += 16 * c // a key word and a value word per cell
				doublings++
			}
			if gen := g.Generation(); gen != doublings {
				t.Fatalf("%d migrations to capacity %d from %d: not doublings only", gen, g.Capacity(), initial)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			ratio := float64(alloc) / float64(targets)
			t.Logf("%d migrations: %.1f MB allocated for %.1f MB of targets (×%.2f)",
				doublings, float64(alloc)/(1<<20), float64(targets)/(1<<20), ratio)
			if ratio > 1.25 {
				t.Fatalf("allocated ×%.2f the targets' cells, want ≤ ×1.25: losers of the migration slot allocate targets", ratio)
			}
		})
	}
}
