// Aggregation: the paper's motivating database use case (§1) — a
// SELECT ... COUNT ... GROUP BY over a skewed key column, implemented as
// concurrent insert-or-increment. Compares a growing growt table against
// a mutex-protected map on the same workload and prints the top groups.
//
// The word-count flavor of the same pattern runs a string-keyed
// growt.Map, which takes the growing generic key route.
package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	growt "repro"
	"repro/internal/rng"
	"repro/internal/zipfgen"
)

const (
	rows     = 2_000_000
	universe = 100_000
	workers  = 4
)

func main() {
	// Pre-generate the skewed "column" (Zipf s=1.1, like real-world
	// group-by columns — §8.3 motivates Zipf for natural data).
	keys := make([]uint64, rows)
	z := zipfgen.New(universe, 1.1, rng.NewSplitMix64(42))
	for i := range keys {
		keys[i] = z.Next()
	}

	m := growt.New[uint64, uint64](growt.WithStrategy(growt.USGrow)) // fetch-and-add variant
	defer m.Close()
	start := time.Now()
	var wg sync.WaitGroup
	chunk := rows / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			h := m.Handle()
			for _, k := range keys[lo : lo+chunk] {
				h.InsertOrUpdate(k, 1, growt.Add)
			}
		}(w * chunk)
	}
	wg.Wait()
	growtTime := time.Since(start)

	// The same aggregation with the classic locked map.
	locked := map[uint64]uint64{}
	var mu sync.Mutex
	start = time.Now()
	wg = sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for _, k := range keys[lo : lo+chunk] {
				mu.Lock()
				locked[k]++
				mu.Unlock()
			}
		}(w * chunk)
	}
	wg.Wait()
	lockedTime := time.Since(start)

	// Report the top-5 groups and cross-check the two engines.
	type group struct{ k, count uint64 }
	var top []group
	m.Range(func(k, v uint64) bool { top = append(top, group{k, v}); return true })
	sort.Slice(top, func(i, j int) bool { return top[i].count > top[j].count })
	fmt.Println("top groups (key: count):")
	for i := 0; i < 5 && i < len(top); i++ {
		fmt.Printf("  %6d: %d\n", top[i].k, top[i].count)
		if locked[top[i].k] != top[i].count {
			panic("engines disagree")
		}
	}
	fmt.Printf("growt (usGrow): %v   mutex map: %v   (%.1fx)\n",
		growtTime, lockedTime, float64(lockedTime)/float64(growtTime))

	wordCount()
}

// wordCount aggregates string keys; growt.New routes them to the growing
// generic backend. The handle-free Compute method keeps the worker
// loop down to one line.
func wordCount() {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog the fox ", 2000)
	words := strings.Fields(text)
	m := growt.New[string, uint64]()
	var wg sync.WaitGroup
	chunk := len(words) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			h := m.Handle()
			for _, word := range words[lo : lo+chunk] {
				h.InsertOrUpdate(word, 1, growt.Add)
			}
		}(w * chunk)
	}
	wg.Wait()
	the, _ := m.Load("the")
	fox, _ := m.Load("fox")
	fmt.Printf("word count over string keys: the=%d fox=%d (distinct words: %d)\n",
		the, fox, m.ApproxSize())
}
