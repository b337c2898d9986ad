package baselines

import (
	"sync"

	"repro/internal/hashfn"
	"repro/internal/tables"
)

// shardCount is the number of independently locked shards; 256 matches
// the concurrency level TBB-style split-lock maps use by default.
const shardCount = 256

// ShardedMap is a split-lock general-purpose map: builtin Go maps behind
// per-shard RWMutexes. It stands in for TBB's
// concurrent_unordered_map-style tables (general types, growing, but
// lock-based accessors).
type ShardedMap struct {
	shards [shardCount]struct {
		mu sync.RWMutex
		m  map[uint64]uint64
		_  [40]byte // keep shards off each other's cache lines
	}
}

// NewShardedMap builds the table with a per-shard capacity hint.
func NewShardedMap(capacity uint64) *ShardedMap {
	t := &ShardedMap{}
	per := int(capacity/shardCount) + 1
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]uint64, per)
	}
	return t
}

func (t *ShardedMap) shard(k uint64) (*sync.RWMutex, map[uint64]uint64) {
	s := &t.shards[hashfn.Avalanche(k)&(shardCount-1)]
	return &s.mu, s.m
}

// Handle returns the table itself.
func (t *ShardedMap) Handle() tables.Handle { return direct(t) }

// ApproxSize returns the exact size.
func (t *ShardedMap) ApproxSize() uint64 {
	var n uint64
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n += uint64(len(t.shards[i].m))
		t.shards[i].mu.RUnlock()
	}
	return n
}

// Range iterates elements.
func (t *ShardedMap) Range(f func(k, v uint64) bool) {
	for i := range t.shards {
		t.shards[i].mu.RLock()
		for k, v := range t.shards[i].m {
			if !f(k, v) {
				t.shards[i].mu.RUnlock()
				return
			}
		}
		t.shards[i].mu.RUnlock()
	}
}

var _ tables.Interface = (*ShardedMap)(nil)
var _ tables.Sizer = (*ShardedMap)(nil)
var _ tables.Ranger = (*ShardedMap)(nil)

// Insert implements tables.Handle.
func (t *ShardedMap) Insert(k, d uint64) bool {
	mu, m := t.shard(k)
	mu.Lock()
	defer mu.Unlock()
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = d
	return true
}

// Update implements tables.Handle.
func (t *ShardedMap) Update(k, d uint64, up tables.UpdateFn) bool {
	mu, m := t.shard(k)
	mu.Lock()
	defer mu.Unlock()
	cur, ok := m[k]
	if !ok {
		return false
	}
	m[k] = up(cur, d)
	return true
}

// InsertOrUpdate implements tables.Handle.
func (t *ShardedMap) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	mu, m := t.shard(k)
	mu.Lock()
	defer mu.Unlock()
	if cur, ok := m[k]; ok {
		m[k] = up(cur, d)
		return false
	}
	m[k] = d
	return true
}

// Find implements tables.Handle.
func (t *ShardedMap) Find(k uint64) (uint64, bool) {
	mu, m := t.shard(k)
	mu.RLock()
	defer mu.RUnlock()
	v, ok := m[k]
	return v, ok
}

// Delete implements tables.Handle.
func (t *ShardedMap) Delete(k uint64) bool {
	mu, m := t.shard(k)
	mu.Lock()
	defer mu.Unlock()
	if _, ok := m[k]; !ok {
		return false
	}
	delete(m, k)
	return true
}

func init() {
	tables.Register(tables.Capabilities{
		Name: "shardedmap", Plot: "tbb um stand-in", StdInterface: "direct",
		Growing: "yes", AtomicUpdates: "locked", Deletion: true,
		GeneralTypes: true, Reference: "split-lock map (TBB concurrent_unordered_map class)",
	}, func(capacity uint64) tables.Interface { return NewShardedMap(capacity) })
}
