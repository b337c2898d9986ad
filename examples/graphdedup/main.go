// Graph deduplication: the paper's §1 motivates hash tables for "storing
// the edge set of a sparse graph in order to support edge queries" and
// for duplicate removal while exploring implicitly defined graphs. This
// example runs a parallel BFS over an implicit De-Bruijn-style graph,
// using a growing growt table as the visited set: exactly one worker
// wins Insert for each node, so the table double-acts as dedup filter
// and parent map.
//
// The typed facade routes uint64 keys through the §5.6 full-key wrapper,
// so node id 0 is a legal key — the core tables' "+1 to dodge the
// reserved empty key" dance is gone.
package main

import (
	"fmt"
	"sync"
	"time"

	growt "repro"
)

const (
	nodeBits = 20 // 2^20-node implicit graph
	workers  = 4
	root     = uint64(1)
)

// succ enumerates an implicit graph: each node has out-degree 3 (a
// De-Bruijn shift plus two mixers), so most nodes are reachable many
// times — heavy duplicate pressure on the visited set.
func succ(v uint64) [3]uint64 {
	mask := uint64(1)<<nodeBits - 1
	return [3]uint64{
		(v<<1 | v>>(nodeBits-1)) & mask,
		(v*2862933555777941757 + 3037000493) & mask,
		(v ^ v>>7 ^ 0x55) & mask,
	}
}

func main() {
	visited := growt.New[uint64, uint64]() // node → BFS parent; grows with the frontier
	defer visited.Close()

	start := time.Now()
	frontier := []uint64{root}
	visited.Store(root, root) // the root is its own parent
	var discovered uint64 = 1
	level := 0
	for len(frontier) > 0 {
		next := make([][]uint64, workers)
		var wg sync.WaitGroup
		chunk := (len(frontier) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(frontier) {
				break
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				h := visited.Handle()
				for _, v := range frontier[lo:hi] {
					for _, s := range succ(v) {
						// Insert wins exactly once per node: the winner
						// records the parent and owns the expansion.
						if h.Insert(s, v) {
							next[w] = append(next[w], s)
						}
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		frontier = frontier[:0]
		for _, part := range next {
			frontier = append(frontier, part...)
			discovered += uint64(len(part))
		}
		level++
	}
	elapsed := time.Since(start)

	fmt.Printf("explored %d nodes (approx size %d) in %d BFS levels, %v\n",
		discovered, visited.ApproxSize(), level, elapsed)

	// Edge query phase: the visited set answers parent lookups wait-free.
	h := visited.Handle()
	hits := 0
	for v := uint64(0); v < 1000; v++ {
		if _, ok := h.Find(v); ok {
			hits++
		}
	}
	fmt.Printf("%d of the first 1000 node ids were reached\n", hits)

	// Walk a parent chain back to the root as a consistency check.
	cur := frontierSample(h)
	steps := 0
	for cur != root && steps < 1_000_000 {
		parent, ok := h.Find(cur)
		if !ok {
			panic("broken parent chain")
		}
		cur = parent
		steps++
	}
	fmt.Printf("parent chain reached the BFS root in %d steps\n", steps)
}

// frontierSample returns some stored node key.
func frontierSample(h *growt.Handle[uint64, uint64]) uint64 {
	for v := uint64(12345); ; v++ {
		if _, ok := h.Find(v); ok {
			return v
		}
	}
}
