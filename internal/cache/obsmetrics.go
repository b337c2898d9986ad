package cache

import "repro/internal/obs"

// Process-wide obs mirrors of the cache counters. Each Cache instance
// keeps its own exact atomic counters (Stats() — tests depend on
// per-instance exactness); the increments below additionally
// land on obs.Default so growd's /metrics and STATS scrape expose the
// cache layer next to the server and core-migration series. With
// several Cache instances in one process the obs series are the sum —
// the right reading for a scrape surface.
var (
	obsHits         = obs.Default.Counter("growt_cache_hits_total")
	obsMisses       = obs.Default.Counter("growt_cache_misses_total")
	obsExpired      = obs.Default.Counter("growt_cache_expired_total")
	obsEvicted      = obs.Default.Counter("growt_cache_evicted_total")
	obsSweeps       = obs.Default.Counter("growt_cache_sweeps_total")
	obsSweepVisited = obs.Default.Counter("growt_cache_sweep_visited_total")
	obsSweepRemoved = obs.Default.Counter("growt_cache_sweep_removed_total")
)

// The counting helpers pair every per-instance increment with its
// process-wide mirror, so a new outcome path cannot bump one and miss
// the other.

func (c *Cache[K, V]) countHit() {
	c.hits.Add(1)
	obsHits.Add(1)
}

func (c *Cache[K, V]) countMiss() {
	c.misses.Add(1)
	obsMisses.Add(1)
}

func (c *Cache[K, V]) countExpired() {
	c.expired.Add(1)
	obsExpired.Add(1)
}

func (c *Cache[K, V]) countEvicted() {
	c.evicted.Add(1)
	obsEvicted.Add(1)
}
