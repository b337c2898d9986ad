// Quickstart: the public API in two minutes — build a typed growing
// table with growt.New, give each goroutine a handle (§5.1 of the
// paper), and use the four modification primitives of §4. The handle-free
// sync.Map-shaped methods are shown at the end.
package main

import (
	"fmt"
	"sync"

	growt "repro"
)

func main() {
	// A growing table (uaGrow, the paper's headline variant). It starts
	// tiny and doubles itself via scalable cluster migration as needed.
	// Integer keys route through the §5.6 full-key wrapper, so the whole
	// uint64 range is legal — including 0, which the core tables reserve.
	m := growt.New[uint64, uint64]()
	defer m.Close()

	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			h := m.Handle() // one handle per goroutine — never share
			for k := uint64(1); k <= 10_000; k++ {
				// Insert: exactly one goroutine wins each key.
				h.Insert(k, id)
				// InsertOrUpdate with an update function: atomic
				// aggregation without read-modify-write races.
				h.InsertOrUpdate(k+1_000_000, 1, growt.Add)
			}
		}(uint64(worker))
	}
	wg.Wait()

	h := m.Handle()
	if v, ok := h.Find(42); ok {
		fmt.Printf("key 42 was inserted first by worker %d\n", v)
	}
	v, _ := h.Find(1_000_042)
	fmt.Printf("counter 1000042 aggregated to %d (want 4)\n", v)

	fmt.Printf("approximate size: %d (exact: 20000)\n", m.ApproxSize())

	// Update with a caller-supplied function — the paper's novel update
	// interface (§4): new = up(current, d).
	h.Update(42, 100, func(cur, d uint64) uint64 { return cur*1000 + d })
	v, _ = h.Find(42)
	fmt.Printf("key 42 after functional update: %d\n", v)

	// Deletion tombstones the cell; the next migration reclaims it (§5.4).
	h.Delete(42)
	if _, ok := h.Find(42); !ok {
		fmt.Println("key 42 deleted")
	}

	// Handle-free convenience methods — a recycled handle per call, a
	// drop-in sync.Map shape. Works for any key/value types; here a
	// string-keyed map, which grows like every other.
	langs := growt.New[string, string]()
	langs.Store("go", "gopher")
	langs.Store("rust", "crab")
	if mascot, ok := langs.Load("go"); ok {
		fmt.Printf("mascot: %s\n", mascot)
	}
	langs.Range(func(k, v string) bool {
		fmt.Printf("  %s → %s\n", k, v)
		return true
	})
}
