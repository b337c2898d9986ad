package growt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pad"
	"repro/internal/tables"
)

// This file is the typed public layer over the paper's word-sized cores:
// one generic Map[K, V] in front of folklore, the four xyGrow variants
// and the §5.6 full-key wrapper. New routes the pair of key and value
// type to one of two backends:
//
//   - key and value both of built-in integer or bool type → the word
//     route: the element sits in a cell of the full-key wrapper over the
//     configured word core (§5.6), so the whole value range of the key's
//     Go type is legal, including 0 and the reserved bit patterns;
//   - every other pair — a string or struct key, an integer key with a
//     string, slice, pointer or float value → the generic route, a
//     hash-to-64-bit codec: the word core maps the key's hash to the head
//     of a collision chain of typed entries in a paged arena. Equality is
//     decided on the stored keys, never on hashes, so any hash function is
//     correct. A deleted key gives back its entry, its hash cell and, page
//     by page, its arena memory ("Generic comparable keys" below).
//
// Keys and values on the word route go through the width codec of
// codec.go; the one deferral of space reclamation left is there: 64-bit
// integer values of magnitude ≥ 2^61 sit behind a never-reclaimed
// indirection arena.

// Map is a shared typed concurrent hash table built by New. The zero
// value is not usable.
//
// Two access disciplines are offered. The paper's explicit one (§5.1):
// call Handle once per goroutine and use the handle's methods — fastest,
// no synchronization beyond the table's own. And a handle-free,
// sync.Map-shaped one: Load / Store / LoadOrStore / Compute / Delete on
// the Map itself, which borrow an idle handle per call. Idle handles sit
// in slots, a cache line each, strongly referenced: core handles register
// state with the table (busy flags, size counters) that is never
// deregistered, so they are recycled, not GC-churned. The sync.Pool holds
// only hints (the slot a P last released into): one lost at a GC costs a
// scan of the slots, not a handle. A borrow writes no shared word but its
// slot's line (§5.1) and waits for nobody.
type Map[K comparable, V any] struct {
	b       backend[K, V]
	replace func(cur, d V) V   // Replace[V], bound once: binding it in Store allocates
	slots   []handleSlot[K, V] // two a P: a fresh hint seldom names one in use
	hints   sync.Pool          // of *handleSlot[K, V], pointing into slots
	next    atomic.Uint32      // round-robin over slots for a fresh hint
	mu      sync.Mutex
	spare   *Handle[K, V] // idle handles that found their slot taken, linked by next; guarded by mu
}

// handleSlot: one idle handle at most, and the borrows made through it.
type handleSlot[K comparable, V any] struct {
	h       atomic.Pointer[Handle[K, V]]
	borrows atomic.Uint64
	_       [pad.CacheLineSize - 16]byte
}

// Handle is a goroutine-private accessor to a typed map (§5.1). Create
// one per goroutine with Map.Handle; never share one between goroutines.
type Handle[K comparable, V any] struct {
	h    backendHandle[K, V]
	slot *handleSlot[K, V] // of a pooled handle: the slot it is in, or goes back to
	next *Handle[K, V]     // on the spare list
}

// backend is the per-key-route engine behind a typed map.
type backend[K comparable, V any] interface {
	newHandle() backendHandle[K, V]
	approxSize() uint64
	// generation is the completed-migration count of the underlying
	// growing core (0 for bounded backends).
	generation() uint64
	close()
	// rangeFrom walks the elements from cur; tables.CursorRanger
	// semantics (the zero cursor starts at the beginning, wrapped=true
	// means the walk reached the end and the returned cursor restarts
	// from the beginning).
	rangeFrom(cur tables.Cursor, fn func(K, V) bool) (tables.Cursor, bool)
}

// backendHandle mirrors the five primitives of §4 on typed operands,
// plus the atomic load-and-delete and compare-and-swap each backend
// provides natively (a generic emulation via update would write the
// unchanged value back on every mismatch: a boxed value per attempt on
// the generic route, an arena slot per attempt for an escaped value on
// the word route).
type backendHandle[K comparable, V any] interface {
	insert(k K, v V) bool
	update(k K, d V, up func(cur, d V) V) bool
	insertOrUpdate(k K, d V, up func(cur, d V) V) bool
	find(k K) (V, bool)
	del(k K) bool
	loadAndDelete(k K) (V, bool)
	compareAndSwap(k K, old, new V) bool
	compareAndDelete(k K, old V) bool
}

// New builds a typed concurrent hash table. The default is the paper's
// headline configuration — a growing uaGrow core starting at 4096 cells,
// for every pair of types; see WithStrategy, WithCapacity, WithBounded,
// and WithHasher.
//
//	counts := growt.New[string, uint64]()
//	edges := growt.New[uint64, uint64](growt.WithStrategy(growt.USGrow))
//	memo := growt.New[Point, Result](growt.WithHasher(hashPoint))
func New[K comparable, V any](opts ...Option) *Map[K, V] {
	c := config{strategy: UAGrow, capacity: defaultInitialCapacity}
	for _, o := range opts {
		o(&c)
	}
	var b backend[K, V]
	if kw, vw := wordWidth[K](), wordWidth[V](); kw != 0 && vw != 0 {
		b = &wordBackend[K, V]{fk: newWordCore(&c), kw: kw, vc: valCodecFor[V](vw)}
	} else {
		b = newGenericBackend[K, V](&c)
	}
	return &Map[K, V]{b: b, replace: Replace[V], slots: make([]handleSlot[K, V], 2*runtime.GOMAXPROCS(0))}
}

// Handle returns a new goroutine-private accessor (§5.1).
func (m *Map[K, V]) Handle() *Handle[K, V] {
	return &Handle[K, V]{h: m.b.newHandle()}
}

// Close releases background resources if the map owns any (the dedicated
// migration pools of paGrow/psGrow). Safe on every map.
func (m *Map[K, V]) Close() { m.b.close() }

// ApproxSize estimates the number of live elements (§5.2). A growing map
// on the word route (key and value both built-in integers or bools)
// returns the paper's approximate per-handle-counter estimate; every
// other map counts exactly.
func (m *Map[K, V]) ApproxSize() uint64 { return m.b.approxSize() }

// Generation returns the number of completed migrations (growth,
// shrink, or cleanup) of the underlying growing core — 0 for WithBounded
// maps, which never migrate. Monotone; observability layers stamp slow
// operations with the generation they ran against.
func (m *Map[K, V]) Generation() uint64 { return m.b.generation() }

// Range calls fn for every element until fn returns false. Like every
// Range in this repository it is for quiescent use only: concurrent
// writers may be partially observed.
func (m *Map[K, V]) Range(fn func(k K, v V) bool) { m.b.rangeFrom(Cursor{}, fn) }

// RangeFrom resumes iteration at cur, calling fn until it returns false
// or the walk reaches the end of the table. It returns the cursor to
// resume from and whether the walk wrapped (reached the end; the
// returned cursor then restarts from the beginning). The zero Cursor
// starts from the beginning. A cursor that outlives a migration
// restarts from position zero of the live generation — a resumed walk
// may re-visit elements but never skips a stable one. Quiescent use
// only, like Range.
func (m *Map[K, V]) RangeFrom(cur Cursor, fn func(k K, v V) bool) (Cursor, bool) {
	return m.b.rangeFrom(cur, fn)
}

// PoolBorrows counts how many times the handle-free methods borrowed a
// pooled handle over the map's lifetime. It exists for tests asserting
// pool discipline (a pinned Session performs exactly one borrow, not
// one per operation).
func (m *Map[K, V]) PoolBorrows() (n uint64) {
	for i := range m.slots {
		n += m.slots[i].borrows.Load()
	}
	return n
}

// Insert stores ⟨k,v⟩ if k is absent. Returns true iff this call
// inserted the element; exactly one of several concurrent inserters of
// the same key succeeds (§4).
func (h *Handle[K, V]) Insert(k K, v V) bool { return h.h.insert(k, v) }

// Update atomically changes the value of k to up(current, d); returns
// false if k is absent (§4's functional update interface).
func (h *Handle[K, V]) Update(k K, d V, up func(cur, d V) V) bool {
	return h.h.update(k, d, up)
}

// InsertOrUpdate inserts ⟨k,d⟩ if absent, else updates like Update.
// Returns true iff an insert was performed.
func (h *Handle[K, V]) InsertOrUpdate(k K, d V, up func(cur, d V) V) bool {
	return h.h.insertOrUpdate(k, d, up)
}

// Find returns a copy of the value stored at k.
func (h *Handle[K, V]) Find(k K) (V, bool) { return h.h.find(k) }

// Delete removes k; returns true iff k was present.
func (h *Handle[K, V]) Delete(k K) bool { return h.h.del(k) }

// LoadAndDelete removes k and returns the value it held (sync.Map
// parity). loaded is false when k was absent. The load and the delete
// are one atomic step: the value returned is exactly the one the delete
// removed, even against concurrent overwrites.
func (h *Handle[K, V]) LoadAndDelete(k K) (value V, loaded bool) {
	return h.h.loadAndDelete(k)
}

// CompareAndSwap replaces the value of k with new iff it is currently
// old (sync.Map parity). Returns false when k is absent or holds a
// different value. Like sync.Map, values are compared with ==, so old
// must be of a comparable dynamic type or CompareAndSwap panics.
func (h *Handle[K, V]) CompareAndSwap(k K, old, new V) bool {
	// Fire the documented uncomparable-value panic here, before any
	// backend lock is held: a stored value can only panic the closure's
	// == if it shares old's dynamic type, so validating old is sufficient.
	_ = any(old) == any(old)
	return h.h.compareAndSwap(k, old, new)
}

// CompareAndDelete removes k iff its value is currently old (sync.Map
// parity). Returns false when k is absent or holds a different value.
// Like CompareAndSwap, values are compared with ==, so old must be of a
// comparable dynamic type or CompareAndDelete panics. The comparison and
// the removal are one atomic step: the element removed is exactly the
// one whose value compared equal, even against concurrent overwrites —
// the primitive behind the cache layer's expiry and eviction races.
func (h *Handle[K, V]) CompareAndDelete(k K, old V) bool {
	// Documented uncomparable-value panic, fired before any backend work
	// (see CompareAndSwap for why validating old is sufficient).
	_ = any(old) == any(old)
	return h.h.compareAndDelete(k, old)
}

// acquire borrows an idle handle for one handle-free operation or for a
// Session's lifetime: the one in the slot its hint names, else any idle
// one, else a new one — it never waits for a release.
//
// Callers must pair the acquire with an immediately deferred release so
// user code running under the handle (hashers, update closures) cannot
// strand it by panicking; growvet's handleleak analyzer enforces the
// shape.
//
//growt:acquires release
//growt:hotpath
func (m *Map[K, V]) acquire() *Handle[K, V] {
	s, _ := m.hints.Get().(*handleSlot[K, V])
	if s == nil {
		s = &m.slots[m.next.Add(1)%uint32(len(m.slots))]
	}
	s.borrows.Add(1)
	h := s.h.Swap(nil)
	if h == nil {
		h = m.idleOrNew()
		h.slot = s
	}
	return h
}

// idleOrNew is acquire's slow path, one goroutine at a time: the slot was
// empty (first use, hint lost at a GC, handle out with a Session). It
// tries every slot twice: a holder whose hint changes between operations
// moves its handle from a slot not yet tried to one found empty.
func (m *Map[K, V]) idleOrNew() *Handle[K, V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.spare; h != nil {
		m.spare, h.next = h.next, nil
		return h
	}
	for i := 0; i < 2*len(m.slots); i++ {
		if h := m.slots[i%len(m.slots)].h.Swap(nil); h != nil {
			return h
		}
	}
	return m.Handle()
}

// release puts a borrowed handle back in the slot it was acquired
// through and hands the hint to the P's next acquire.
//
//growt:hotpath
func (m *Map[K, V]) release(h *Handle[K, V]) {
	if s := h.slot; s.h.CompareAndSwap(nil, h) {
		m.hints.Put(s)
		return
	}
	m.mu.Lock() // the slot is taken, so two hints name it: this one is dropped
	h.next, m.spare = m.spare, h
	m.mu.Unlock()
}

// Load returns the value stored at k (handle-free).
func (m *Map[K, V]) Load(k K) (V, bool) {
	h := m.acquire()
	defer m.release(h)
	return h.h.find(k)
}

// Store sets the value for k, inserting or overwriting (handle-free).
func (m *Map[K, V]) Store(k K, v V) {
	h := m.acquire()
	defer m.release(h)
	h.h.insertOrUpdate(k, v, m.replace)
}

// LoadOrStore returns the existing value for k if present; otherwise it
// stores and returns v. loaded is true if the value was already present.
func (m *Map[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	h := m.acquire()
	defer m.release(h)
	return loadOrStore(h, k, v)
}

// loadOrStore is the find-or-insert loop shared by Map and Session.
func loadOrStore[K comparable, V any](h *Handle[K, V], k K, v V) (V, bool) {
	for {
		if cur, ok := h.Find(k); ok {
			return cur, true
		}
		if h.Insert(k, v) {
			return v, false
		}
	}
}

// Compute inserts ⟨k,d⟩ if absent, else atomically replaces the value
// with up(current, d); true iff an insert happened (handle-free
// InsertOrUpdate).
func (m *Map[K, V]) Compute(k K, d V, up func(cur, d V) V) (inserted bool) {
	h := m.acquire()
	defer m.release(h)
	return h.h.insertOrUpdate(k, d, up)
}

// Delete removes k (handle-free); true iff k was present.
func (m *Map[K, V]) Delete(k K) (deleted bool) {
	h := m.acquire()
	defer m.release(h)
	return h.h.del(k)
}

// LoadAndDelete removes k and returns the value it held (handle-free;
// sync.Map parity). loaded is false when k was absent.
func (m *Map[K, V]) LoadAndDelete(k K) (value V, loaded bool) {
	h := m.acquire()
	defer m.release(h)
	return h.h.loadAndDelete(k)
}

// CompareAndSwap replaces the value of k with new iff it is currently
// old (handle-free; sync.Map parity). Old values are compared with ==
// and must be of a comparable dynamic type, or CompareAndSwap panics.
func (m *Map[K, V]) CompareAndSwap(k K, old, new V) (swapped bool) {
	h := m.acquire()
	defer m.release(h)
	return h.CompareAndSwap(k, old, new)
}

// CompareAndDelete removes k iff its value is currently old (handle-free;
// sync.Map parity). Old values are compared with == and must be of a
// comparable dynamic type, or CompareAndDelete panics.
func (m *Map[K, V]) CompareAndDelete(k K, old V) (deleted bool) {
	h := m.acquire()
	defer m.release(h)
	return h.CompareAndDelete(k, old)
}

// Update atomically changes the value of k to up(current, d); returns
// false if k is absent (handle-free Update — unlike Compute it never
// inserts).
func (m *Map[K, V]) Update(k K, d V, up func(cur, d V) V) (updated bool) {
	h := m.acquire()
	defer m.release(h)
	return h.h.update(k, d, up)
}

// Session is its pinned Handle: it borrows one pooled handle at creation
// and is that handle until Close — every Handle method is a Session
// method — sparing each operation the handle-free methods' acquire and
// release. On top it spells the four sync.Map-shaped names the Map has
// and a Handle lacks. Like a Handle, a Session must not be used
// concurrently — create one per goroutine (typically one per connection
// or worker loop) and Close it when done, or the map makes a handle in
// its place and keeps both for good. Operations on a closed Session
// panic: its Handle is nil.
type Session[K comparable, V any] struct {
	*Handle[K, V]
	m *Map[K, V]
}

// Session borrows a pooled handle and pins it into a Session view.
// Callers own the release: every path must Close the Session (growvet's
// handleleak analyzer enforces the shape for in-package callers).
//
//growt:acquires Close
//growt:exclusive -- ownership transfer: the borrowed handle is released by Session.Close, not here
func (m *Map[K, V]) Session() *Session[K, V] {
	return &Session[K, V]{Handle: m.acquire(), m: m}
}

// Close gives the pinned handle back to the map's idle handles. Close
// is idempotent; the Session is unusable afterwards.
func (s *Session[K, V]) Close() {
	if s.Handle != nil {
		s.m.release(s.Handle)
		s.Handle = nil
	}
}

// Load returns the value stored at k (see Map.Load).
func (s *Session[K, V]) Load(k K) (V, bool) { return s.Find(k) }

// Store sets the value for k, inserting or overwriting (see Map.Store).
func (s *Session[K, V]) Store(k K, v V) { s.InsertOrUpdate(k, v, s.m.replace) }

// LoadOrStore returns the existing value for k if present; otherwise it
// stores and returns v (see Map.LoadOrStore).
func (s *Session[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	return loadOrStore(s.Handle, k, v)
}

// Compute inserts ⟨k,d⟩ if absent, else atomically replaces the value
// with up(current, d) (see Map.Compute).
func (s *Session[K, V]) Compute(k K, d V, up func(cur, d V) V) bool {
	return s.InsertOrUpdate(k, d, up)
}

// Number collects the types usable with Add.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Add is the typed update function that adds the operand to the stored
// value, for atomic aggregation (§4's atomicUpdate specialization).
func Add[V Number](cur, d V) V { return cur + d }

// Replace is the typed update function that overwrites the stored value
// with the operand.
func Replace[V any](_, d V) V { return d }

// newWordCore builds the §5.6 full-key wrapper over the word core chosen
// by the options — a folklore table of capacity 2×expected (§4) or a
// growing one; shared by both routes.
func newWordCore(c *config) *core.FullKeys {
	return core.NewFullKeys(func() tables.Interface {
		if c.bounded {
			return core.NewFolklore(c.expected)
		}
		return core.NewGrow(c.strategy, c.capacity)
	})
}

// hasherFor resolves the generic-route hash function: the WithHasher
// option if given (type-checked against K), else the default.
func hasherFor[K comparable](c *config) func(K) uint64 {
	if c.hasher == nil {
		return defaultHasher[K]()
	}
	h, ok := c.hasher.(func(K) uint64)
	if !ok {
		var zk K
		panic(fmt.Sprintf("growt: WithHasher function is %T, map key type is %T", c.hasher, zk))
	}
	return h
}

// ---------------------------------------------------------------------
// Integer/bool keys and values: the width codec over the full-key word
// core (§5.6).

type wordBackend[K comparable, V any] struct {
	fk *core.FullKeys
	kw uintptr // wordWidth[K]()
	vc valCodec[V]
}

func (b *wordBackend[K, V]) kenc(k K) uint64 { return toWord(k, b.kw) }

func (b *wordBackend[K, V]) newHandle() backendHandle[K, V] {
	h := &wordHandle[K, V]{b: b, h: b.fk.Handle()}
	h.wrapped = h.applyUp
	return h
}
func (b *wordBackend[K, V]) approxSize() uint64 { return b.fk.ApproxSize() }
func (b *wordBackend[K, V]) generation() uint64 { return b.fk.Generation() }
func (b *wordBackend[K, V]) close()             { b.fk.Close() }
func (b *wordBackend[K, V]) rangeFrom(cur tables.Cursor, fn func(K, V) bool) (tables.Cursor, bool) {
	return b.fk.RangeFrom(cur, func(k, w uint64) bool { return fn(fromWord[K](k, b.kw), b.vc.dec(w)) })
}

type wordHandle[K comparable, V any] struct {
	b *wordBackend[K, V]
	h tables.Handle
	// wrapped is applyUp, bound once (a wrapper built per call is an
	// allocation per call); up and d are its operands during one update.
	wrapped tables.UpdateFn
	up      func(cur, d V) V
	d       V
}

func (h *wordHandle[K, V]) applyUp(cur, _ uint64) uint64 {
	return h.b.vc.enc(h.up(h.b.vc.dec(cur), h.d))
}

// park sets wrapped's operands; the call it returns puts back what was
// there — nothing, unless up itself updates through this handle.
func (h *wordHandle[K, V]) park(up func(cur, d V) V, d V) func() {
	prevUp, prevD := h.up, h.d
	h.up, h.d = up, d
	return func() { h.up, h.d = prevUp, prevD }
}

func (h *wordHandle[K, V]) insert(k K, v V) bool {
	kw := h.b.kenc(k)
	if w, inline := h.b.vc.tryEnc(v); inline {
		return h.h.Insert(kw, w)
	}
	// Arena-bound value: probe first so a refused insert does not orphan
	// a slot (racy probes only cost the orphan, never correctness).
	if _, present := h.h.Find(kw); present {
		return false
	}
	return h.h.Insert(kw, h.b.vc.enc(v))
}

func (h *wordHandle[K, V]) update(k K, d V, up func(cur, d V) V) bool {
	defer h.park(up, d)()
	return h.h.Update(h.b.kenc(k), 0, h.wrapped)
}

func (h *wordHandle[K, V]) insertOrUpdate(k K, d V, up func(cur, d V) V) bool {
	defer h.park(up, d)()
	kw := h.b.kenc(k)
	if w, inline := h.b.vc.tryEnc(d); inline {
		return h.h.InsertOrUpdate(kw, w, h.wrapped)
	}
	// Arena-bound operand: try the update path first so the steady-state
	// (key present) case never encodes d, which would orphan one slot
	// per call.
	if h.h.Update(kw, 0, h.wrapped) {
		return false
	}
	return h.h.InsertOrUpdate(kw, h.b.vc.enc(d), h.wrapped)
}

func (h *wordHandle[K, V]) find(k K) (V, bool) {
	w, ok := h.h.Find(h.b.kenc(k))
	if !ok {
		var zv V
		return zv, false
	}
	return h.b.vc.dec(w), true
}

func (h *wordHandle[K, V]) del(k K) bool { return h.h.Delete(h.b.kenc(k)) }

// compareAndSwap rides the core's Update. The closure may run several
// times under contention; the core applies exactly its final invocation,
// so the last verdict is the authoritative one. On mismatch the *word*
// is returned unchanged — never re-encoded — so a refused CAS allocates
// nothing. The new value is encoded at most once per call; that one slot
// leaks only if a transiently-matching attempt is finally refused
// (bounded by one slot per call, like any overwrite). Both final
// conditions are required: the closure's last invocation matching is not
// enough, because the core reports applied=false when its value-CAS lost
// to a concurrent delete after that invocation, and then nothing was
// written.
func (h *wordHandle[K, V]) compareAndSwap(k K, old, new V) bool {
	vc := &h.b.vc
	swapped, encoded := false, false
	var newW uint64
	applied := h.h.Update(h.b.kenc(k), 0, func(cur, _ uint64) uint64 {
		if any(vc.dec(cur)) != any(old) {
			swapped = false
			return cur
		}
		swapped = true
		if !encoded {
			newW = vc.enc(new)
			encoded = true
		}
		return newW
	})
	return applied && swapped
}

// compareAndDelete finds the current word, refuses if it does not decode
// to old, then deletes exactly that word with the core's conditional
// tombstoning CAS. The successful core CAS is the linearization point —
// at that instant the stored word was the one observed to decode equal.
// A failed CAS (value changed underneath) re-reads; arena references are
// never reused, so an equal word always still decodes to the same value
// (no ABA).
func (h *wordHandle[K, V]) compareAndDelete(k K, old V) bool {
	kw := h.b.kenc(k)
	// Every word core behind the full-key wrapper implements
	// tables.CompareAndDeleter (conditional tombstoning CAS).
	cd := h.h.(tables.CompareAndDeleter)
	for {
		w, ok := h.h.Find(kw)
		if !ok || any(h.b.vc.dec(w)) != any(old) {
			return false
		}
		if cd.CompareAndDelete(kw, w) {
			return true
		}
	}
}

func (h *wordHandle[K, V]) loadAndDelete(k K) (V, bool) {
	// The full-key wrapper behind every word route implements
	// tables.LoadDeleter (its tombstoning CAS observes the value word it
	// clears), so the decoded value is exactly the one removed.
	w, ok := h.h.(tables.LoadDeleter).LoadAndDelete(h.b.kenc(k))
	if !ok {
		var zv V
		return zv, false
	}
	return h.b.vc.dec(w), true
}

// ---------------------------------------------------------------------
// Generic comparable keys: hash-to-64-bit codec. The word core maps the
// key's hash (through the full-key wrapper, so every hash value is a
// legal word key) to the arena reference of the head of a collision
// chain; a chain entry holds the real key, an atomically swappable value
// pointer and the next link. An entry is born live and dies once: delete
// swaps its value pointer to nil, and a later insert of the same key
// appends a fresh entry at the chain's tail. A chain whose entries are
// all dead is sealed — its tail's next link is swung from 0 to sealed, so
// nothing can be appended any more — and then taken out of the core with
// CompareAndDelete(hash, head). The core therefore sees every delete, and
// its tombstone cleanup and shrinking (§5.4) bound the cell table by the
// live keys; the winner of that CompareAndDelete gives the chain's
// entries back to the arena, which retires a page once all of its entries
// are back. Entries are never rewritten or handed out twice and Go's
// collector is the grace period: a goroutine holding an *entry keeps
// reading valid memory, one holding only a reference into a retired page
// reads "absent" — rightly: that chain was sealed, hence all dead.
//
// The invariants this rests on, each with the test that exercises it:
//
//  1. Dead is permanent and a sealed chain is immutable: no value CAS
//     leaves nil, no link CAS leaves sealed (TestGenericChainModel).
//  2. At most one live entry per key is reachable from a cell: an insert
//     links its entry with a CAS on the tail it reached after seeing
//     every earlier entry of the key dead (TestFacadeLinearizable).
//  3. Every entry is given back exactly once: by the CompareAndDelete
//     winner for each entry of the chain it dropped, or by the allocating
//     upsert for an entry it never linked (TestGenericChurnBounded: one
//     miss pins a page, one double count retires a live one).
//  4. A page is retired only when none of its entries is reachable from
//     any cell: entries come back only after their cell is gone
//     (TestCursorAcrossRetiredPages, TestGenericChainModel).
//
// What this does not reclaim: a chain that never dies out keeps its dead
// entries (a hasher that makes a long-lived key collide with churning
// ones grows their chain by an entry per re-insert — a 64-bit hash does
// not), and a WithBounded map's folklore core keeps a tombstone per hash
// ever seen (no migration, no cleanup), so there only entries and pages
// come back.

// sealed in an entry's next link closes the chain: it is all dead and its
// cell is being, or has been, removed from the core.
const sealed = ^uint64(0)

type entry[K comparable, V any] struct {
	key  K
	val  atomic.Pointer[V] // nil = dead
	next atomic.Uint64     // reference of the next chain entry; 0 = tail; sealed
}

// The generic route's reclamation series, touched only when a chain is
// dropped or a page is built or retired — never per Load or Store. A map
// collected wholesale is not subtracted from pages_live.
var (
	obsChainsDropped = obs.Default.Counter("growt_generic_chains_dropped_total")
	obsPagesRetired  = obs.Default.Counter("growt_generic_pages_retired_total")
	obsPagesLive     = obs.Default.Gauge("growt_generic_pages_live")
)

type genericBackend[K comparable, V any] struct {
	fk   *core.FullKeys
	hash func(K) uint64
	ar   *arena[entry[K, V]]
	size atomic.Int64
	gen  uint64 // process-unique id tagging resumable cursors
}

// genericGen hands every generic backend a process-unique nonzero
// generation id for rangeFrom cursors (0 is reserved for "no cursor").
var genericGen atomic.Uint64

func newGenericBackend[K comparable, V any](c *config) *genericBackend[K, V] {
	return &genericBackend[K, V]{fk: newWordCore(c), hash: hasherFor[K](c), ar: newArena[entry[K, V]](), gen: genericGen.Add(1)}
}

func (b *genericBackend[K, V]) newHandle() backendHandle[K, V] {
	return &genericHandle[K, V]{b: b, h: b.fk.Handle()}
}

func (b *genericBackend[K, V]) approxSize() uint64 {
	n := b.size.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

func (b *genericBackend[K, V]) generation() uint64 { return b.fk.Generation() }

func (b *genericBackend[K, V]) close() { b.fk.Close() }

// rangeFrom walks the arena from cur: every live entry is exactly one
// element (an entry is live only while linked, but for the instant its
// upsert takes to link it or give it back). Entry indices never change
// meaning, so the cursor is a plain index; pages retired, or reserved
// and not built yet, are stepped over whole; entries appended behind the
// cursor are picked up by the next wrapped walk. Quiescent use only.
func (b *genericBackend[K, V]) rangeFrom(cur tables.Cursor, fn func(K, V) bool) (tables.Cursor, bool) {
	idx := b.ar.floor()
	if cur.Gen == b.gen && cur.Pos > idx {
		idx = cur.Pos
	}
	for n := b.ar.n.Load(); idx < n; {
		p := b.ar.page(idx / arenaPageSize)
		if p == nil {
			idx = (idx/arenaPageSize + 1) * arenaPageSize
			continue
		}
		e := &p.slots[idx%arenaPageSize]
		idx++
		if vp := e.val.Load(); vp != nil && !fn(e.key, *vp) {
			if idx >= n {
				break
			}
			return tables.Cursor{Gen: b.gen, Pos: idx}, false
		}
	}
	return tables.Cursor{Gen: b.gen}, true
}

// newEntry builds a live, not yet linked entry for ⟨k,v⟩.
func (b *genericBackend[K, V]) newEntry(k K, v V) uint64 {
	ref, e := b.ar.alloc()
	if (ref-1)%arenaPageSize == 0 {
		obsPagesLive.Add(1)
	}
	e.key = k
	e.val.Store(&v)
	return ref
}

// giveBack returns an entry no cell leads to any more (invariant 3).
func (b *genericBackend[K, V]) giveBack(ref uint64) {
	if b.ar.release(ref) {
		obsPagesRetired.Add(1)
		obsPagesLive.Add(-1)
	}
}

type genericHandle[K comparable, V any] struct {
	b *genericBackend[K, V]
	h tables.Handle
}

// findEntry walks the collision chain of k's hash for a live entry
// carrying k; nil if there is none. head is the chain it walked, for the
// caller that goes on to kill the entry (see reap).
//
//growt:hotpath
func (h *genericHandle[K, V]) findEntry(hash uint64, k K) (e *entry[K, V], head uint64) {
	head, ok := h.h.Find(hash)
	if !ok {
		return nil, 0
	}
	for ref := head; ref != 0 && ref != sealed; ref = e.next.Load() {
		if e = h.b.ar.get(ref); e == nil {
			break // the chain was dropped under us
		}
		if e.key == k && e.val.Load() != nil {
			return e, head
		}
	}
	return nil, head
}

// upsert is the shared insert / insert-or-update machinery. With up==nil
// a present key refuses (insert semantics); otherwise it is atomically
// updated. Returns true iff an insert happened. An insert linearizes
// where it links its entry — into the core for a new chain, behind the
// tail of an old one: a chain that takes a link is not sealed, so it is
// the one its cell leads to, and every entry of k before the tail had
// been seen dead.
func (h *genericHandle[K, V]) upsert(k K, d V, up func(cur, d V) V) bool {
	b, hash := h.b, h.b.hash(k)
	ref := uint64(0) // entry built for ⟨k,d⟩, until linked or given back
retry:
	for {
		head, ok := h.h.Find(hash)
		if !ok {
			if ref == 0 {
				ref = b.newEntry(k, d)
			}
			if h.h.Insert(hash, ref) {
				b.size.Add(1)
				return true
			}
			continue // lost the cell; walk the winner's chain
		}
		for at := head; ; {
			e := b.ar.get(at)
			if e == nil {
				continue retry // the chain was dropped under us
			}
			if e.key == k {
				for p := e.val.Load(); p != nil; p = e.val.Load() {
					if ref != 0 { // lost to another inserter of k; up may panic
						b.ar.get(ref).val.Store(nil)
						b.giveBack(ref)
						ref = 0
					}
					if up == nil {
						return false
					}
					nv := up(*p, d)
					if e.val.CompareAndSwap(p, &nv) {
						return false
					}
				}
			}
			switch nx := e.next.Load(); nx {
			case 0:
				if ref == 0 {
					ref = b.newEntry(k, d)
				}
				if e.next.CompareAndSwap(0, ref) {
					b.size.Add(1)
					return true
				}
				// Lost the tail: look at what took it.
			case sealed:
				h.drop(hash, head)
				continue retry
			default:
				at = nx
			}
		}
	}
}

// reap is called by whoever killed an entry of the chain at head: if the
// chain has died out it seals it and drops its cell. The last killer of a
// chain finds it all dead (dead is permanent), so a chain that dies is
// dropped unless an insert extends it first — whose killer comes by here.
func (h *genericHandle[K, V]) reap(hash, head uint64) {
	for at := head; ; {
		e := h.b.ar.get(at)
		if e == nil || e.val.Load() != nil {
			return // already dropped, or still in use
		}
		switch nx := e.next.Load(); nx {
		case 0:
			if !e.next.CompareAndSwap(0, sealed) {
				continue // extended or sealed meanwhile: read the link again
			}
			fallthrough
		case sealed:
			h.drop(hash, head)
			return
		default:
			at = nx
		}
	}
}

// drop removes the cell of the sealed chain at head from the core (the
// full-key wrapper's handle is a CompareAndDeleter over every core).
// References are never handed out twice, so at most one caller wins the
// conditional delete for a given head; the winner gives the chain's
// entries back. The chain is immutable and none of its pages can retire
// before this walk has counted it, so the walk needs no nil check.
func (h *genericHandle[K, V]) drop(hash, head uint64) {
	if !h.h.(tables.CompareAndDeleter).CompareAndDelete(hash, head) {
		return
	}
	obsChainsDropped.Add(1)
	for at := head; at != sealed; {
		nx := h.b.ar.get(at).next.Load()
		h.b.giveBack(at)
		at = nx
	}
}

func (h *genericHandle[K, V]) insert(k K, v V) bool { return h.upsert(k, v, nil) }

func (h *genericHandle[K, V]) insertOrUpdate(k K, d V, up func(cur, d V) V) bool {
	return h.upsert(k, d, up)
}

func (h *genericHandle[K, V]) update(k K, d V, up func(cur, d V) V) bool {
	e, _ := h.findEntry(h.b.hash(k), k)
	if e == nil {
		return false
	}
	for {
		p := e.val.Load()
		if p == nil {
			return false
		}
		nv := up(*p, d)
		if e.val.CompareAndSwap(p, &nv) {
			return true
		}
	}
}

//growt:hotpath
func (h *genericHandle[K, V]) find(k K) (v V, ok bool) {
	if e, _ := h.findEntry(h.b.hash(k), k); e != nil {
		if p := e.val.Load(); p != nil {
			return *p, true
		}
	}
	return
}

func (h *genericHandle[K, V]) del(k K) bool {
	_, ok := h.loadAndDelete(k)
	return ok
}

// compareAndSwap CASes the entry's value pointer directly: a refused
// call performs no write and allocates nothing.
func (h *genericHandle[K, V]) compareAndSwap(k K, old, new V) bool {
	e, _ := h.findEntry(h.b.hash(k), k)
	if e == nil {
		return false
	}
	for {
		p := e.val.Load()
		if p == nil || any(*p) != any(old) {
			return false
		}
		nv := new
		if e.val.CompareAndSwap(p, &nv) {
			return true
		}
	}
}

// kill is the one delete of the generic route: it CASes the value of k's
// live entry to nil — verdict and removal are that one CAS — provided
// match accepts the value (nil accepts all), then lets the chain go if
// that was its last live entry.
func (h *genericHandle[K, V]) kill(k K, match func(V) bool) (v V, ok bool) {
	hash := h.b.hash(k)
	if e, head := h.findEntry(hash, k); e != nil {
		for p := e.val.Load(); p != nil && (match == nil || match(*p)); p = e.val.Load() {
			if e.val.CompareAndSwap(p, nil) {
				h.b.size.Add(-1)
				h.reap(hash, head)
				return *p, true
			}
		}
	}
	return
}

func (h *genericHandle[K, V]) compareAndDelete(k K, old V) bool {
	_, ok := h.kill(k, func(v V) bool { return any(v) == any(old) })
	return ok
}

func (h *genericHandle[K, V]) loadAndDelete(k K) (V, bool) { return h.kill(k, nil) }
