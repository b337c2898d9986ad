// Caching: the canonical "many scenarios" workload of the ROADMAP north
// star. This example wraps the typed map in the internal/cache facade —
// per-entry TTL plus a bounded-memory sampled-LRU budget — and runs a
// skewed read-through workload against a slow "origin" (a simulated
// backend lookup). The cache layer adds no locks: expiry tombstoning
// and eviction are element-wise CompareAndDelete races on the same core
// the paper benchmarks.
//
// Watch three things in the output:
//
//   - the hit-rate climbing as the hot keys settle into the cache;
//   - the entry count holding at the budget while the key universe is
//     10× larger (sampled LRU keeps the hot set, evicts the cold tail);
//   - expired counts ticking up as TTLs lapse and the sweeper collects.
//
// The budget bounds memory as well as entries: under uint64 keys as under
// any others, what an expired or evicted entry held goes back to the
// collector and the table.
//
// The same facade — same options, same semantics — is what `growd
// -default-ttl -max-entries` serves over TCP (docs/PROTOCOL.md).
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	growt "repro"
	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/zipfgen"
)

const (
	universe   = 50_000 // distinct keys the workload touches
	budget     = 5_000  // cache entry budget (10× smaller than the universe)
	ttl        = time.Second
	workers    = 4
	runFor     = 2 * time.Second
	originCost = 50 * time.Microsecond // simulated backend latency per miss
)

// origin is the slow backend a miss falls through to.
func origin(k uint64) string {
	time.Sleep(originCost)
	return fmt.Sprintf("origin-value-%d", k)
}

func main() {
	c := cache.New[uint64, string](
		growt.WithTTL(ttl),
		growt.WithMaxEntries(budget),
		growt.WithSweepInterval(50*time.Millisecond),
	)
	defer c.Close()

	var originCalls atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := zipfgen.New(universe, 0.99, rng.NewSplitMix64(uint64(w)+1))
			for !stop.Load() {
				k := z.Next()
				if _, ok := c.Get(k); ok {
					continue // served from cache
				}
				// Read-through: fetch from the origin and publish under
				// the default TTL. Racing fillers of the same key both
				// store; last write wins — both hold the same origin
				// value, so the race is benign.
				originCalls.Add(1)
				c.Set(k, origin(k))
			}
		}(w)
	}

	for time.Since(start) < runFor {
		time.Sleep(400 * time.Millisecond)
		st := c.Stats()
		total := st.Hits + st.Misses
		fmt.Printf("t=%-5v entries %5d/%d  hit-rate %.3f  expired %d  evicted %d\n",
			time.Since(start).Round(100*time.Millisecond), c.Len(), budget,
			float64(st.Hits)/float64(max(total, 1)), st.Expired, st.Evicted)
	}
	stop.Store(true)
	wg.Wait()

	st := c.Stats()
	fmt.Printf("\n%d requests: %.1f%% served from cache, %d origin fetches\n",
		st.Hits+st.Misses, 100*float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)),
		originCalls.Load())
	if c.Len() > budget+16 {
		fmt.Println("BUG: entry budget not held")
	}
}
