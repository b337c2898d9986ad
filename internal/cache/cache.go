// Package cache is the TTL-expiration + bounded-memory eviction layer
// over the typed map — the serving-side feature that turns growt from an
// immortal key-value store into a cache. It adds no locks and no global
// coordination of its own: every replacement decision is an element-wise
// CompareAndSwap/CompareAndDelete race that the core tables already
// prove safe under concurrent updates, deletions, and migrations.
//
// Entries wrap values with an expiry deadline (and, in a budgeted cache,
// a visited mark and the key). Expiry is enforced twice over:
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
// Bounded memory is CLOCK under SIEVE's rule (Zhang et al., "SIEVE is
// Simpler than LRU", NSDI 2024): writes queue the item they stored at the
// tail of a lock-free ring, and a hit marks its item visited — once; a
// hot key's later hits read the mark and write nothing. When ApproxSize
// exceeds the configured entry budget, the writer advances the ring's
// hand, taking each slot's item out of the ring: a visited item loses its
// mark and is queued again at the tail, and the first unvisited live one
// is CompareAndDeleted — the only map operation an eviction makes. So
// entries that nobody reads leave in write order. A victim that was
// concurrently overwritten survives (the conditional delete sees a
// different item), so eviction can never lose a fresh write. An item
// that a read or the sweeper collected is marked gone, and the hand
// drops it without asking the map.
//
// Two access disciplines are offered, mirroring the typed map's, over
// one operation set: every operation is written once, as a method of
// ops, against the six map methods it needs (view). The Cache embeds
// ops over the map itself, so its methods are handle-free: each op that
// writes the map borrows a pooled map handle for its duration (a map
// Load borrows nothing). A Session
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
// type, and that route keeps the pointer itself in the chain entry: a
// write allocates the item and nothing else, and a read goes from the
// entry straight to the item. An evicted or expired entry gives
// everything back — value and key to the GC, hash cell to the core's
// next cleanup migration, chain entry to an arena page released when all
// its entries are — so memory follows the budget however many keys pass
// through; and since the hand evicts unread entries in write order, they
// leave the arena's pages in the order they filled them. An unbudgeted
// cache's item is its value and deadline alone (a string item is 24 B).
// A budgeted cache's item also carries its visited mark and its key, so
// that the ring can hold items, not copies of keys: 24 B more for a
// string key (a string item in the 48 B size class). The ring keeps the
// items between its hand and its tail reachable, values included, until
// the hand takes them. It has the budget rounded up to a power of two
// slots, so a budgeted cache keeps fewer than twice its budget of items
// reachable, live entries included. An overwrite, a delete or an expiry
// leaves its old item in the ring until the hand reaches it. The hand
// moves while the cache is over its budget, and when a write finds the
// ring full: under the budget it then queues the live entries it meets
// again and drops the first item that is no entry, so every entry stays
// a candidate however the ring fills. The ring is clamped at 2^22 slots,
// so a budget beyond that holds about 2^22 entries. A sweep
// tick visits at most 16 batches of entries at the front, where it stops
// at the first batch of live ones, plus one batch behind its cursor; a
// cursor invalidated by a table migration restarts from the front, so a
// cycle spanning a migration may re-visit entries (never skip stable
// ones).
package cache

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	growt "repro"
	"repro/internal/obs/trace"
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
	// maxEvictPerWrite bounds how many evictions one write performs when
	// the cache is over budget, so no single SET stalls on a long purge.
	maxEvictPerWrite = 8
	// evictWalk bounds the slots one eviction attempt takes from the
	// ring, so enforcing the budget examines at most
	// maxEvictPerWrite·evictWalk = 256 slots per write, less than a lap
	// of any ring of 256 slots or more; a write that meets a run of
	// visited items leaves the rest of the walk to the next write. A
	// write that finds the ring full walks about as many again to make
	// room.
	evictWalk = 32
	// minRing/maxRing clamp the eviction ring (slots, power of 2), which
	// is the entry budget rounded up: every entry's item is queued, and
	// what room is left holds items that stopped being entries
	// (overwritten, deleted or expired) until the hand drops them. It
	// must not be much larger, since it keeps the items it holds
	// reachable. 2^22 slots (32 MiB of pointers) cover budgets up to ~4M
	// entries.
	minRing = 2
	maxRing = 1 << 22
)

// item is one cache entry: the value and its expiry deadline, both
// immutable after construction — every logical update replaces the whole
// item, so the item pointer doubles as the entry's version for
// CompareAndSwap / CompareAndDelete races.
type item[V any] struct {
	val    V
	expiry int64 // unix nanos; 0 = immortal
}

// keyed is how a budgeted cache allocates an item: with the state the
// eviction hand reads and the key beside it. The map stores &kd.item and
// the ring holds kd, so eviction can name the entry it picked without
// asking the map for it. An unbudgeted cache allocates bare items, which
// nothing may take for keyed (see keyedOf).
type keyed[K comparable, V any] struct {
	item[V]
	state atomic.Uint32 // fresh, visited or gone
	key   K
}

// The states of a keyed item. A hit turns fresh into visited, and the
// hand turns visited back into fresh as it queues the item again. gone
// is an item collected by collect, whose callers do not know its ring
// slot. An item pointer is stored once, so such an item is never the
// entry again: the hand drops it. Any other item that stopped being the
// entry stays in the ring until the hand reaches it and its conditional
// delete is refused.
const (
	fresh uint32 = iota
	visited
	gone
)

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

	// ring is the eviction queue: a lock-free buffer of stored items in
	// the order they were queued. ringPos counts the slots reserved (the
	// tail) and hand the slots taken by evictOne, which clears each slot
	// it takes. The tail never laps the hand, and the hand never passes
	// a slot whose writer has not stored its item, so each queued item
	// is taken exactly once. nil when unbounded.
	//growt:atomic
	ring     []atomic.Pointer[keyed[K, V]]
	ringMask uint64
	ringPos  atomic.Uint64
	hand     atomic.Uint64

	// sweepCur is the resumable position the next sweep tick continues
	// from; sweepMu serializes concurrent SweepOnce callers so the
	// cursor advances coherently.
	sweepMu  sync.Mutex
	sweepCur growt.Cursor

	stop, sweepDone chan struct{}

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

// newItem builds a fresh entry for k: keyed in a budgeted cache, bare
// otherwise.
func (c *Cache[K, V]) newItem(k K, v V, expiry int64) *item[V] {
	if c.ring == nil {
		return &item[V]{val: v, expiry: expiry}
	}
	return &(&keyed[K, V]{item: item[V]{val: v, expiry: expiry}, key: k}).item
}

// keyedOf is the keyed allocation that it starts. Only for items of a
// budgeted cache, all of which newItem allocated keyed.
func (c *Cache[K, V]) keyedOf(it *item[V]) *keyed[K, V] {
	return (*keyed[K, V])(unsafe.Pointer(it))
}

// touch marks a hit on it visited, in a budgeted cache: nothing else has
// a mark. Only a fresh item is written, so of a hot key's hits only the
// first after each pass of the hand writes.
func (c *Cache[K, V]) touch(it *item[V]) {
	if c.ring != nil && c.keyedOf(it).state.Load() == fresh {
		c.keyedOf(it).state.CompareAndSwap(fresh, visited)
	}
}

// view is the slice of the typed map's surface the cache operates
// through: both *growt.Map (handle-free, one pool borrow per write) and
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
	if ok && dead(it, now) {
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
	if o.c.ring != nil {
		o.c.keyedOf(it).state.Store(gone)
	}
	if ok {
		o.c.countExpired()
	}
	return ok
}

// Get returns the live value at k. An expired entry is never returned:
// it reads as a miss and is collected in passing.
func (o *ops[K, V]) Get(k K) (v V, ok bool) {
	it := o.live(k, o.c.now())
	if it == nil {
		o.c.countMiss()
		return v, false
	}
	o.c.touch(it)
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
	o.store(k, o.c.newItem(k, v, deadline(now, ttl)), now)
}

// SetExpiry stores ⟨k,v⟩ with an absolute expiry deadline (zero =
// immortal) — for callers that compute deadlines externally, e.g. from
// an upstream's Expires header. at is unix nanoseconds on the cache's
// clock; a deadline already in the past stores an entry that is born
// expired (never observable).
func (o *ops[K, V]) SetExpiry(k K, v V, at int64) { o.store(k, o.c.newItem(k, v, at), o.c.now()) }

// store stores it at k and queues it, as of now.
func (o *ops[K, V]) store(k K, it *item[V], now int64) {
	o.v.Store(k, it)
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
	ins := o.c.newItem(k, d, deadline(now, o.c.set.TTL))
	revived := false
	next := ins // the item the applied invocation stored
	inserted := o.v.Compute(k, ins, func(cur, _ *item[V]) *item[V] {
		if revived = dead(cur, now); revived {
			next = ins
		} else {
			next = o.c.newItem(k, up(cur.val, d), cur.expiry)
		}
		return next
	})
	if inserted {
		next = ins
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
		if nw := o.c.newItem(k, new, it.expiry); o.v.CompareAndSwap(k, it, nw) {
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
		if nw := o.c.newItem(k, it.val, deadline(now, ttl)); o.v.CompareAndSwap(k, it, nw) {
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
	if ok && dead(it, o.c.now()) {
		o.c.countExpired()
		return false
	}
	return ok
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
	c.m.Range(func(k K, it *item[V]) bool { return dead(it, now) || fn(k, it.val) })
}

// ---------------------------------------------------------------------
// Eviction: CLOCK with SIEVE's visited mark over the ring.

// noteWrite queues the item a write stored at the ring's tail and
// enforces the entry budget. Called after every write that stores an
// item. A full ring first passes its hand over its oldest slots: under
// the budget the hand queues the live entries it meets again and drops
// the first item that stopped being an entry; after maxEvictPerWrite
// walks that found none, it evicts as over the budget.
func (o *ops[K, V]) noteWrite(it *item[V], now int64) {
	if c := o.c; c.ring != nil {
		for tries, kd := 0, c.keyedOf(it); !c.put(kd); tries++ {
			o.evictOne(now, tries < maxEvictPerWrite && o.Len() <= c.set.MaxEntries)
		}
		o.enforceBudget(now)
	}
}

// put queues kd at the ring's tail, or reports a full ring. A slot is
// reserved only once the hand has taken out and cleared the item a lap
// before, so the hand never meets a stale item.
func (c *Cache[K, V]) put(kd *keyed[K, V]) bool {
	for {
		h, t := c.hand.Load(), c.ringPos.Load()
		s := &c.ring[t&c.ringMask]
		switch {
		case t-h > c.ringMask:
			return false
		case s.Load() != nil && c.ringPos.Load() == t:
			runtime.Gosched() // the hand has passed the slot but not cleared it yet
		case s.Load() == nil && c.ringPos.CompareAndSwap(t, t+1):
			s.Store(kd)
			return true
		}
	}
}

// enforceBudget evicts entries while the cache is over its entry budget,
// bounded per call so a single write never stalls on a long purge (the
// sweeper keeps enforcing in the background). Only a write that had to
// evict more than one entry is traced, as a storm.
func (o *ops[K, V]) enforceBudget(now int64) {
	max := o.c.set.MaxEntries
	if max == 0 {
		return
	}
	var evicted uint64
	for tries := 0; tries < maxEvictPerWrite && o.Len() > max; tries++ {
		if o.evictOne(now, false) {
			evicted++
		}
	}
	if evicted > 1 {
		trace.Emit(trace.KindEvictStorm, evicted, o.Len(), max)
	}
}

// evictOne advances the hand, taking each slot's item out of the ring,
// until it has removed or dropped one or taken evictWalk slots. It stops
// at a slot whose writer has not stored its item yet. A gone item is
// dropped; a visited one loses its mark and is queued again at the
// tail; an expired one is collected, which also counts as progress; any
// other is conditionally deleted, the one map call of an eviction. The
// decision reads only the item, and the conditional delete makes it
// safe: an item overwritten or removed since it was queued is not the
// entry any more and is refused. With keep (a write making room in a
// full ring under the budget) that last item is looked up instead:
// queued again if it is still the entry, dropped if not. An item the
// ring has no room to queue again is treated as unvisited, so an entry
// leaves the ring only by leaving the map. Returns true if an entry was
// removed.
func (o *ops[K, V]) evictOne(now int64, keep bool) bool {
	c := o.c
	for walked := 0; walked < evictWalk; {
		h, t := c.hand.Load(), c.ringPos.Load()
		s := &c.ring[h&c.ringMask]
		kd := s.Load()
		if h == t || kd == nil && c.hand.Load() == h {
			runtime.Gosched() // an empty ring, or its oldest item is not stored yet
			return false
		}
		if kd == nil || !c.hand.CompareAndSwap(h, h+1) {
			continue
		}
		s.Store(nil)
		walked++
		switch {
		case kd.state.Load() == gone:
		case dead(&kd.item, now):
			return o.collect(kd.key, &kd.item)
		case kd.state.CompareAndSwap(visited, fresh) && c.put(kd):
		case keep:
			if cur, _ := o.v.Load(kd.key); cur != &kd.item {
				return false
			} else if c.put(kd) {
				continue
			}
			fallthrough
		default:
			ok := o.v.CompareAndDelete(kd.key, &kd.item)
			if ok {
				c.countEvicted()
			}
			return ok
		}
	}
	return false
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
