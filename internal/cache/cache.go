// Package cache is the TTL-expiration + bounded-memory eviction layer
// over the typed map — the serving-side feature that turns growt from an
// immortal key-value store into a cache. It adds no locks and no global
// coordination of its own: every replacement decision is an element-wise
// CompareAndSwap/CompareAndDelete race that the core tables already
// prove safe under concurrent updates, deletions, and migrations.
//
// Entries wrap values with an expiry deadline and a last-access clock.
// Expiry is enforced twice over:
//
//   - lazily on read: a Get that finds an expired entry atomically
//     tombstones it via CompareAndDelete and reports a miss — an expired
//     value is never returned, even against a racing overwrite (the
//     conditional delete removes exactly the expired item or nothing);
//   - proactively by an incremental background sweeper. Each tick first
//     clears the expired front: the map's walk runs in write order, so
//     under one TTL whatever has expired sits before the first live
//     entries, and a walk from the start collects it until it meets its
//     batch of live entries (or 16 batches of visits). Then it resumes a
//     RangeFrom cursor for one batch of entries, so entries behind a
//     live front (mixed TTLs) are reached too and a full cycle over n
//     entries does O(n) callback work.
//
// Bounded memory is Redis-style sampled approximate-LRU: writes record
// the item they stored in a lock-free sample ring; when ApproxSize
// exceeds the configured entry budget, the writer samples a handful of
// ring slots, reads each candidate's deadline and access clock from the
// item itself, and CompareAndDeletes the least-recently-accessed live
// one — the only map operation an eviction makes. A candidate that was
// concurrently overwritten survives (the conditional delete sees a
// different item), so eviction can never lose a fresh write. Eviction
// clears the slot of every item it removed or found stale; an item that
// a read or the sweeper collected is marked gone instead, and the
// sampler clears its slot without asking the map.
//
// Two access disciplines are offered, mirroring the typed map's, over
// one operation set: every operation is written once, as a method of
// ops, against the six map methods it needs (view). The Cache embeds
// ops over the map itself, so its methods are handle-free: each op
// borrows a pooled map handle for its duration. A Session
// (NewSession/Close) embeds the same ops over a map session that pins
// one pooled handle for its lifetime — the right shape for a connection
// or worker loop, which then pays the map's acquire and release once
// instead of per op. Sessions are not for concurrent use; the Cache
// itself is.
//
// There is one versioning idiom. An item is immutable, so its pointer
// is the entry's version, and every conditional write is the same move:
// read the item, decide on it, CompareAndSwap or CompareAndDelete exactly
// that item in the map. CompareAndSwap, CompareAndDelete and Expire look
// again if it moved; lazy collection, eviction and the sweeper let it go
// (whatever replaced it is newer than their verdict). A refusal writes
// nothing and allocates nothing.
//
// The cache shares the root package's functional-option vocabulary:
// WithTTL, WithMaxEntries, and WithSweepInterval
// configure this layer, and every other option (WithStrategy,
// WithCapacity, WithHasher, ...) passes through to the
// underlying growt.New.
//
// # Costs and deferrals
//
// MaxEntries bounds the live ENTRY count. The stored value is a pointer
// to an item, so a cache is on the map's generic route whatever its key
// type: an evicted or expired entry gives everything back — value and key
// to the GC, hash cell to the core's next cleanup migration, chain entry
// to an arena page released when all its entries are — so memory follows
// the budget however many keys pass through. An item carries its key so
// that the sample ring can hold items, not copies of keys: 16 B more per
// entry for a string key, budgeted or not (a string item moves from the
// 32 B to the 48 B size class), though only a budgeted cache's ring reads
// it. The ring keeps the items it holds reachable, values included,
// until their slots are overwritten or cleared. It has the budget rounded
// up to a power of two slots, so a budgeted cache keeps at most twice its
// budget of dead or replaced items reachable beyond its live entries. A
// sweep tick
// visits at most 16 batches of entries at the front, where it stops at
// the first batch of live ones, plus one batch behind its cursor; a
// cursor invalidated by a table migration restarts from the front, so a
// cycle spanning a migration may re-visit entries (never skip stable
// ones). The eviction sample ring covers min(budget rounded up, 2^22)
// recent writes — budgets beyond that get window-LRU over the newest
// writes.
package cache

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	growt "repro"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

const (
	// defaultSweepInterval paces the background sweeper when
	// WithSweepInterval is not given.
	defaultSweepInterval = time.Second
	// defaultSweepBatch bounds the live entries one sweep tick examines
	// at the front and behind its cursor; the resumable cursor makes a
	// full cycle O(n) regardless, so the batch only trades tick count
	// against tick length.
	defaultSweepBatch = 1024
	// frontReach caps the front pass at frontReach batches of visits, so
	// a tick stays bounded however much expired at once.
	frontReach = 16
	// evictSamples is the Redis-style sample width: candidates examined
	// per eviction decision.
	evictSamples = 5
	// maxEvictPerWrite bounds how many evictions one write performs when
	// the cache is over budget, so no single SET stalls on a long purge.
	maxEvictPerWrite = 8
	// minRing/maxRing clamp the eviction sample ring (slots, power of 2),
	// which is the entry budget rounded up. The ring must cover the
	// budget or eviction degrades toward approximate-MRU: keys whose slots
	// were overwritten become invisible to sampling, leaving only recent
	// writes evictable. It must not be much larger either, since it keeps
	// the items it holds reachable. Two slots at least, so a write's own
	// item is not the only candidate. 2^22 slots (32 MiB of pointers)
	// covers budgets up to ~4M entries; larger budgets get ring-window LRU
	// over the newest 4M writes.
	minRing = 2
	maxRing = 1 << 22
)

// item is one cache entry: the value, its expiry deadline, and the
// access clock driving sampled LRU. val and expiry are immutable after
// construction — every logical update replaces the whole item, so the
// item pointer doubles as the entry's version for CompareAndSwap /
// CompareAndDelete races.
type item[V any] struct {
	val    V
	expiry int64        // unix nanos; 0 = immortal
	access atomic.Int64 // unix nanos of the last touch (sampled-LRU clock), or gone
}

// keyed is how an item is allocated: with its key beside it. The map
// stores &kd.item and the sample ring holds kd, so eviction can name the
// entry it picked without asking the map for it.
type keyed[K comparable, V any] struct {
	item[V]
	key K
}

// gone is the access clock of an item collected by collect, whose
// callers do not know its ring slot. An item pointer is stored once, so
// such an item is never the entry again: the sampler skips it and clears
// its slot. Any other item that stopped being the entry stays in the
// ring until the sampler picks it, its conditional delete is refused,
// and its slot is cleared.
const gone = math.MinInt64

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits    uint64 `json:"hits"`    // Get found a live entry
	Misses  uint64 `json:"misses"`  // Get found nothing live (includes expired)
	Expired uint64 `json:"expired"` // entries removed because their deadline passed
	Evicted uint64 `json:"evicted"` // live entries removed to hold the budget
	Sweeps  uint64 `json:"sweeps"`  // completed sweeper ticks

	// SweepVisited / SweepRemoved total the entries examined and
	// collected across all sweep ticks (growd publishes the same totals
	// as growt_cache_sweep_*_total); LastSweepVisited / LastSweepRemoved
	// are the most recent tick alone.
	SweepVisited     uint64 `json:"sweep_visited"`
	SweepRemoved     uint64 `json:"sweep_removed"`
	LastSweepVisited uint64 `json:"last_sweep_visited"`
	LastSweepRemoved uint64 `json:"last_sweep_removed"`
}

// Cache is a concurrent TTL + bounded-memory cache over a typed map.
// Safe for unrestricted concurrent use; the zero value is not usable —
// build with New.
type Cache[K comparable, V any] struct {
	ops[K, V] // over m itself: the handle-free discipline

	m   *growt.Map[K, *item[V]]
	set growt.CacheSettings

	now func() int64 // clock, unix nanos; swappable for deterministic tests

	// ring is the eviction sample pool: a lock-free buffer of recently
	// stored items that evictOne samples uniformly, clearing the slots of
	// items that are gone or no longer the entry. nil when unbounded.
	//growt:atomic
	ring     []atomic.Pointer[keyed[K, V]]
	ringMask uint64
	ringPos  atomic.Uint64
	seed     atomic.Uint64 // sampling stream selector

	// sweepCur is the resumable position the next sweep tick continues
	// from; sweepMu serializes concurrent SweepOnce callers so the
	// cursor advances coherently.
	sweepMu  sync.Mutex
	sweepCur growt.Cursor

	stop      chan struct{}
	sweepDone chan struct{}

	hits, misses, expired, evicted, sweeps atomic.Uint64

	sweepVisited, sweepRemoved         atomic.Uint64 // cumulative
	lastSweepVisited, lastSweepRemoved atomic.Uint64 // most recent tick
}

// New builds a cache. Cache-layer options (WithTTL, WithMaxEntries,
// WithSweepInterval) configure this facade; all options — including
// those — are forwarded to growt.New, which ignores the cache subset.
func New[K comparable, V any](opts ...growt.Option) *Cache[K, V] {
	return newCache[K, V](func() int64 { return time.Now().UnixNano() }, opts...)
}

// newCache is New with an injectable clock (deterministic expiry tests).
//
//growt:exclusive -- construction: the cache is unpublished
func newCache[K comparable, V any](now func() int64, opts ...growt.Option) *Cache[K, V] {
	c := &Cache[K, V]{
		m:   growt.New[K, *item[V]](opts...),
		set: growt.ResolveCacheSettings(opts...),
		now: now,
	}
	c.ops = ops[K, V]{c: c, v: c.m}
	if c.set.MaxEntries > 0 {
		size := uint64(minRing)
		for size < c.set.MaxEntries && size < maxRing {
			size <<= 1
		}
		c.ring = make([]atomic.Pointer[keyed[K, V]], size)
		c.ringMask = size - 1
		c.seed.Store(0x9E3779B97F4A7C15)
	}
	if c.set.SweepInterval >= 0 {
		every := c.set.SweepInterval
		if every == 0 {
			every = defaultSweepInterval
		}
		c.stop = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweepLoop(every)
	}
	return c
}

// Close stops the background sweeper and releases the map's resources.
func (c *Cache[K, V]) Close() {
	if c.stop != nil {
		close(c.stop)
		<-c.sweepDone
		c.stop = nil
	}
	c.m.Close()
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Expired:          c.expired.Load(),
		Evicted:          c.evicted.Load(),
		Sweeps:           c.sweeps.Load(),
		SweepVisited:     c.sweepVisited.Load(),
		SweepRemoved:     c.sweepRemoved.Load(),
		LastSweepVisited: c.lastSweepVisited.Load(),
		LastSweepRemoved: c.lastSweepRemoved.Load(),
	}
}

// PoolBorrows counts the underlying map's handle-pool borrows (see
// growt.Map.PoolBorrows); tests use it to assert session discipline.
func (c *Cache[K, V]) PoolBorrows() uint64 { return c.m.PoolBorrows() }

// Generation returns the underlying map's completed-migration count
// (see growt.Map.Generation); the slow-op log stamps each entry with
// the generation it ran against so a stall can be tied to the exact
// migration that caused it.
func (c *Cache[K, V]) Generation() uint64 { return c.m.Generation() }

// deadline converts a ttl into an absolute expiry; ttl <= 0 = immortal.
// The sum saturates: a ttl that reaches past the end of the clock (the
// wire's SETEX/EXPIRE saturate to one) means "never", not a deadline
// that wrapped into the past.
func deadline(now int64, ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	if int64(ttl) > math.MaxInt64-now {
		return math.MaxInt64
	}
	return now + int64(ttl)
}

// dead reports whether it has expired as of now.
func dead[V any](it *item[V], now int64) bool {
	return it.expiry != 0 && now >= it.expiry
}

// newItem builds a fresh entry for k with its access clock primed.
func newItem[K comparable, V any](k K, v V, now, expiry int64) *keyed[K, V] {
	it := &keyed[K, V]{item: item[V]{val: v, expiry: expiry}, key: k}
	it.access.Store(now)
	return it
}

// view is the slice of the typed map's surface the cache operates
// through: both *growt.Map (handle-free, one pool borrow per op) and
// *growt.Session (one pinned handle) satisfy it at [K, *item[V]].
type view[K comparable, V any] interface {
	Load(k K) (*item[V], bool)
	Store(k K, it *item[V])
	Compute(k K, d *item[V], up func(cur, d *item[V]) *item[V]) bool
	LoadAndDelete(k K) (*item[V], bool)
	CompareAndSwap(k K, old, new *item[V]) bool
	CompareAndDelete(k K, old *item[V]) bool
}

// ops is the cache's operation set, written once against a view. Cache
// embeds it over the map itself and Session over a pinned map session,
// so the two expose the same methods from the same bodies.
type ops[K comparable, V any] struct {
	c *Cache[K, V]
	v view[K, V]
}

// live returns the unexpired item at k, or nil. An expired entry reads
// as absent and is collected in passing — the lazy half of expiry.
func (o *ops[K, V]) live(k K, now int64) *item[V] {
	it, ok := o.v.Load(k)
	if !ok {
		return nil
	}
	if dead(it, now) {
		o.collect(k, it)
		return nil
	}
	return it
}

// collect removes the expired item it from k if it is still the stored
// entry. The conditional delete is what makes the race against writers
// safe: if anything replaced it, the delete refuses and the replacement
// survives untouched. Either way it is no longer the entry: it is gone.
func (o *ops[K, V]) collect(k K, it *item[V]) bool {
	ok := o.v.CompareAndDelete(k, it)
	it.access.Store(gone)
	if ok {
		o.c.countExpired()
	}
	return ok
}

// Get returns the live value at k. An expired entry is never returned:
// it reads as a miss and is collected in passing.
func (o *ops[K, V]) Get(k K) (v V, ok bool) {
	now := o.c.now()
	it := o.live(k, now)
	if it == nil {
		o.c.countMiss()
		return v, false
	}
	it.access.Store(now)
	o.c.countHit()
	return it.val, true
}

// Set stores ⟨k,v⟩ with the cache's default TTL (WithTTL; immortal if
// none was configured).
func (o *ops[K, V]) Set(k K, v V) { o.SetTTL(k, v, o.c.set.TTL) }

// SetTTL stores ⟨k,v⟩ with an explicit time-to-live (ttl <= 0 =
// immortal), replacing any previous entry and deadline.
func (o *ops[K, V]) SetTTL(k K, v V, ttl time.Duration) {
	now := o.c.now()
	it := newItem(k, v, now, deadline(now, ttl))
	o.v.Store(k, &it.item)
	o.noteWrite(it, now)
}

// SetExpiry stores ⟨k,v⟩ with an absolute expiry deadline (zero =
// immortal) — for callers that compute deadlines externally, e.g. from
// an upstream's Expires header. at is unix nanoseconds on the cache's
// clock; a deadline already in the past stores an entry that is born
// expired (never observable).
func (o *ops[K, V]) SetExpiry(k K, v V, at int64) {
	now := o.c.now()
	it := newItem(k, v, now, at)
	o.v.Store(k, &it.item)
	o.noteWrite(it, now)
}

// Compute inserts ⟨k,d⟩ if k is absent or expired — stamping the
// cache's default TTL — and otherwise atomically replaces the live
// value with up(current, d), keeping the existing deadline (so e.g. a
// counter increment does not extend its own life). Returns true iff the
// call inserted (or revived an expired entry). The closure may run
// several times under contention; the map applies exactly its final
// invocation.
func (o *ops[K, V]) Compute(k K, d V, up func(cur, d V) V) bool {
	now := o.c.now()
	fresh := newItem(k, d, now, deadline(now, o.c.set.TTL))
	revived := false
	next := fresh // the item the applied invocation stored
	inserted := o.v.Compute(k, &fresh.item, func(cur, _ *item[V]) *item[V] {
		if revived = dead(cur, now); revived {
			next = fresh
		} else {
			next = newItem(k, up(cur.val, d), now, cur.expiry)
		}
		return &next.item
	})
	if inserted {
		next = fresh
	}
	o.noteWrite(next, now)
	return inserted || revived
}

// CompareAndSwap replaces the live value of k with new iff it is
// currently old (compared with ==, like the map's CompareAndSwap — old
// must be of a comparable dynamic type or this panics). The entry keeps
// its deadline. found distinguishes a value mismatch (found=true) from
// an absent-or-expired key (found=false). A refusal writes nothing.
func (o *ops[K, V]) CompareAndSwap(k K, old, new V) (swapped, found bool) {
	_ = any(old) == any(old) // documented uncomparable-value panic
	now := o.c.now()
	for {
		it := o.live(k, now)
		if it == nil {
			return false, false
		}
		if any(it.val) != any(old) {
			return false, true
		}
		if nw := newItem(k, new, now, it.expiry); o.v.CompareAndSwap(k, it, &nw.item) {
			o.noteWrite(nw, now)
			return true, true
		}
	}
}

// CompareAndDelete removes k iff its live value is currently old
// (compared with ==, like CompareAndSwap — old must be of a comparable
// dynamic type or this panics). found distinguishes a value mismatch
// (found=true) from an absent-or-expired key (found=false). A
// concurrent overwrite between verdict and removal survives untouched.
func (o *ops[K, V]) CompareAndDelete(k K, old V) (deleted, found bool) {
	_ = any(old) == any(old) // documented uncomparable-value panic
	now := o.c.now()
	for {
		it := o.live(k, now)
		if it == nil {
			return false, false
		}
		if any(it.val) != any(old) {
			return false, true
		}
		if o.v.CompareAndDelete(k, it) {
			return true, true
		}
	}
}

// Expire re-deadlines the live entry at k to now+ttl (ttl <= 0 =
// immortal). Returns false when k is absent or already expired — an
// expired entry cannot be revived by Expire, only by a write.
func (o *ops[K, V]) Expire(k K, ttl time.Duration) bool {
	now := o.c.now()
	for {
		it := o.live(k, now)
		if it == nil {
			return false
		}
		if nw := newItem(k, it.val, now, deadline(now, ttl)); o.v.CompareAndSwap(k, it, &nw.item) {
			o.noteWrite(nw, now)
			return true
		}
	}
}

// TTL returns the remaining time-to-live of the live entry at k.
// ok is false when k is absent or expired; a live immortal entry
// reports d < 0.
func (o *ops[K, V]) TTL(k K) (d time.Duration, ok bool) {
	now := o.c.now()
	it := o.live(k, now)
	if it == nil {
		return 0, false
	}
	if it.expiry == 0 {
		return -1, true
	}
	return time.Duration(it.expiry - now), true
}

// Delete removes k; true iff a live (non-expired) entry was removed.
func (o *ops[K, V]) Delete(k K) bool {
	it, ok := o.v.LoadAndDelete(k)
	if !ok {
		return false
	}
	if dead(it, o.c.now()) {
		o.c.countExpired()
		return false
	}
	return true
}

// Len is the number of stored entries (live + not-yet-collected
// expired): the generic route's exact count. It is handle-free on a
// Session too.
func (o *ops[K, V]) Len() uint64 { return o.c.m.ApproxSize() }

// Range calls fn for every live entry until fn returns false. Expired
// entries are skipped (never surfaced), not collected. Like every Range
// in this repository it is for quiescent use only.
func (c *Cache[K, V]) Range(fn func(k K, v V) bool) {
	now := c.now()
	c.m.Range(func(k K, it *item[V]) bool {
		if dead(it, now) {
			return true
		}
		return fn(k, it.val)
	})
}

// ---------------------------------------------------------------------
// Eviction: Redis-style sampled approximate LRU.

// noteWrite records the item a write stored in the sample ring and
// enforces the entry budget. Called after every write that stores an
// item.
func (o *ops[K, V]) noteWrite(it *keyed[K, V], now int64) {
	c := o.c
	if c.ring == nil {
		return
	}
	c.ring[c.ringPos.Add(1)&c.ringMask].Store(it)
	o.enforceBudget(now)
}

// enforceBudget evicts sampled-LRU entries while the cache is over its
// entry budget, bounded per call so a single write never stalls on a
// long purge (the sweeper keeps enforcing in the background). Only a
// write that had to evict more than one entry is traced, as a storm.
func (o *ops[K, V]) enforceBudget(now int64) {
	max := o.c.set.MaxEntries
	if max == 0 {
		return
	}
	var evicted uint64
	for tries := 0; tries < maxEvictPerWrite && o.Len() > max; tries++ {
		if o.evictOne(now) {
			evicted++
		}
	}
	if evicted > 1 {
		trace.Emit(trace.KindEvictStorm, evicted, o.Len(), max)
	}
}

// evictOne samples evictSamples live items from the ring and removes
// the least-recently-accessed one (an expired item is collected on
// sight, which also counts as progress). It reads the candidates
// themselves and asks the map nothing until its one conditional delete,
// which makes the decision safe: a candidate overwritten or removed since
// it was stored is not the entry any more and is refused. Either way the
// victim's slot is cleared, as is that of a collected candidate, so the
// ring does not keep them reachable. Returns true if an entry was
// removed.
func (o *ops[K, V]) evictOne(now int64) bool {
	c := o.c
	// Seeds advance by 1, NOT by splitmix's own golden-ratio increment:
	// a gamma-stride seed would make call n+1's probe sequence call n's
	// shifted by one, so every eviction re-probes the same slots. Unit
	// strides land on disjoint splitmix inputs and decorrelate fully.
	r := rng.MakeSplitMix64(c.seed.Add(1))
	var best *keyed[K, V]
	var bestSlot *atomic.Pointer[keyed[K, V]]
	var bestAt int64
	sampled := 0
	for probe := 0; probe < 4*evictSamples && sampled < evictSamples; probe++ {
		slot := &c.ring[r.Uint64()&c.ringMask]
		it := slot.Load()
		if it == nil {
			continue
		}
		at := it.access.Load()
		if at == gone {
			slot.CompareAndSwap(it, nil)
			continue
		}
		if dead(&it.item, now) {
			ok := o.collect(it.key, &it.item)
			slot.CompareAndSwap(it, nil)
			if ok {
				return true
			}
			continue
		}
		sampled++
		if best == nil || at < bestAt {
			best, bestSlot, bestAt = it, slot, at
		}
	}
	if best == nil {
		return false
	}
	ok := o.v.CompareAndDelete(best.key, &best.item)
	bestSlot.CompareAndSwap(best, nil)
	if ok {
		c.countEvicted()
	}
	return ok
}

// ---------------------------------------------------------------------
// Proactive expiry: the incremental background sweeper.

// sweepLoop ticks sweepOnce until Close. It holds one cache Session for
// its whole life — the sweeper's conditional deletes ride a pinned
// handle instead of borrowing from the pool every tick.
func (c *Cache[K, V]) sweepLoop(every time.Duration) {
	defer close(c.sweepDone)
	s := c.NewSession()
	defer s.Close()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			s.sweepOnce(defaultSweepBatch)
		}
	}
}

// SweepOnce runs one sweep tick with the given batch, collecting expired
// entries, then enforces the entry budget. The tick first walks the
// expired front from the start of the map: it collects every expired
// entry it meets and stops at its batch-th unexpired entry or its
// 16·batch-th visit. Then it examines batch more entries, resuming the
// cursor where the previous tick stopped, so a full cycle over n entries
// costs O(n) callback work wherever the expired entries lie. Exported so
// tests (and callers without a background sweeper) can drive expiry
// deterministically. Returns the number of entries removed. Concurrent
// writers may be partially observed — the walk is best-effort;
// correctness is carried by the lazy read path.
func (c *Cache[K, V]) SweepOnce(batch int) int { return c.sweepOnce(batch) }

func (o *ops[K, V]) sweepOnce(batch int) int {
	c := o.c
	now := c.now()
	seen, removed := 0, 0
	// visit counts an entry, collects it if it expired, and reports
	// whether it is live.
	visit := func(k K, it *item[V]) bool {
		seen++
		if !dead(it, now) {
			return true
		}
		if o.collect(k, it) {
			removed++
		}
		return false
	}
	c.sweepMu.Lock()
	// The expired front: the walk runs in write order, so it is the
	// stragglers that pin the oldest arena pages.
	live := 0
	c.m.RangeFrom(growt.Cursor{}, func(k K, it *item[V]) bool {
		if visit(k, it) {
			live++
		}
		return live < batch && seen < frontReach*batch
	})
	// The resumable pass: what expired behind a live front.
	walked := 0
	c.sweepCur, _ = c.m.RangeFrom(c.sweepCur, func(k K, it *item[V]) bool {
		visit(k, it)
		walked++
		return walked < batch
	})
	c.sweepMu.Unlock()
	c.sweepVisited.Add(uint64(seen))
	c.sweepRemoved.Add(uint64(removed))
	c.lastSweepVisited.Store(uint64(seen))
	c.lastSweepRemoved.Store(uint64(removed))
	obsSweepVisited.Add(uint64(seen))
	obsSweepRemoved.Add(uint64(removed))
	if seen > 0 {
		trace.Emit(trace.KindSweepSlice, uint64(seen), uint64(removed), 0)
	}
	o.enforceBudget(now)
	c.sweeps.Add(1)
	obsSweeps.Add(1)
	return removed
}

// ---------------------------------------------------------------------
// Session: the same operations on a pinned handle.

// Session is a pinned-handle view of a Cache: it borrows one pooled map
// handle at creation and runs every operation of the Cache on it until
// Close, without a per-op acquire and release. Like the map session it
// pins, a Session must not be used concurrently — create one per
// connection or worker loop and Close it when done. Operations on a
// closed Session panic.
type Session[K comparable, V any] struct {
	ops[K, V]
	pin *growt.Session[K, *item[V]]
}

// NewSession pins one pooled map handle into a Session view. Callers
// own the release: every path must Close the Session.
func (c *Cache[K, V]) NewSession() *Session[K, V] {
	pin := c.m.Session()
	return &Session[K, V]{ops: ops[K, V]{c: c, v: pin}, pin: pin}
}

// Close gives the pinned handle back to the map's idle handles. Close
// is idempotent; the Session is unusable afterwards.
func (s *Session[K, V]) Close() { s.pin.Close() }
