package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/pad"
	"repro/internal/tables"
)

// Strategy selects one of the four growing hash table variants of §7 —
// the cross product of the migration-thread recruitment policy and the
// consistency protocol of §5.3.2.
type Strategy uint8

const (
	// UA: user threads are enslaved for migration; consistency by
	// asynchronously marking cells before copying.
	UA Strategy = iota
	// US: user threads migrate; consistency by synchronizing update and
	// grow phases with busy flags (enables native fetch-and-add updates).
	US
	// PA: a dedicated pool of migration goroutines; marking.
	PA
	// PS: a dedicated pool; synchronized.
	PS
)

// String returns the paper's name for the variant.
func (s Strategy) String() string {
	switch s {
	case UA:
		return "uaGrow"
	case US:
		return "usGrow"
	case PA:
		return "paGrow"
	case PS:
		return "psGrow"
	}
	return "unknown"
}

func (s Strategy) synchronized() bool { return s == US || s == PS }
func (s Strategy) pooled() bool       { return s == PA || s == PS }

// growFillNum/growFillDen: a migration is triggered when the estimated
// number of nonempty cells reaches 60% of capacity (§7).
const (
	growFillNum = 3
	growFillDen = 5
)

// Grow is the adaptively sized table of §5: a folklore generation plus
// the scalable cluster migration, in any of the four strategy variants.
type Grow struct {
	strategy Strategy
	cur      atomic.Pointer[Table]
	mig      atomic.Pointer[migration]

	// gen counts completed migrations: the generation index of cur.
	// Monotone; advanced in onDone after the table pointer flips.
	gen atomic.Uint64

	// busy flags of all live handles; only used by synchronized variants,
	// and raised by updates only (§5.3.2 "Prevent Concurrent Updates"):
	// a find never enters, it reads whichever generation is current.
	busyMu sync.Mutex
	busys  []*pad.Bool

	// migration pool (p-variants).
	poolCh chan *migration
	closed atomic.Bool
}

// NewGrow builds a growing table with the given strategy and initial
// capacity (the growing benchmarks of the paper start at 4096).
func NewGrow(strategy Strategy, initialCapacity uint64) *Grow {
	g := &Grow{strategy: strategy}
	g.cur.Store(NewTable(initialCapacity))
	if strategy.pooled() {
		n := runtime.GOMAXPROCS(0)
		g.poolCh = make(chan *migration, n)
		for i := 0; i < n; i++ {
			go g.poolWorker()
		}
	}
	return g
}

// Strategy returns the variant.
func (g *Grow) Strategy() Strategy { return g.strategy }

// Generation returns the number of completed migrations — the
// generation index of the current table (0 for the initial one).
func (g *Grow) Generation() uint64 { return g.gen.Load() }

// Capacity returns the current generation's cell count.
func (g *Grow) Capacity() uint64 { return g.cur.Load().capacity }

// MemBytes reports the backing memory of the current generation plus any
// in-flight migration target (tables.MemUser, Fig. 10). A target counts
// once started is closed: launch allocates its cells just before.
func (g *Grow) MemBytes() uint64 {
	b := g.cur.Load().MemBytes()
	if m := g.mig.Load(); m != nil {
		select {
		case <-m.started:
			b += m.dst.MemBytes()
		default:
		}
	}
	return b
}

// ApproxSize estimates the number of live elements (§5.2), read from the
// current generation's counters.
func (g *Grow) ApproxSize() uint64 { return g.cur.Load().c.approxLive() }

// Find looks k up in the current generation. It needs no handle: a find
// writes nothing (§4), so it neither raises a busy flag nor helps a
// migration. On the marking variants a copied cell stays readable with
// its mark set; on the synchronized ones drainBusy has excluded every
// updater before the copy starts and the copy only reads src, so a find
// that reads src after the flip returns its state at the flip.
//
//growt:hotpath
func (g *Grow) Find(k uint64) (uint64, bool) {
	checkKey(k)
	return g.cur.Load().findCore(k)
}

// Range iterates live elements; quiescent use only.
func (g *Grow) Range(fn func(k, v uint64) bool) { g.cur.Load().rangeCore(fn) }

// Close shuts down the migration pool (p-variants). The table must be
// quiescent. Implements tables.Closer.
func (g *Grow) Close() {
	if g.strategy.pooled() && g.closed.CompareAndSwap(false, true) {
		close(g.poolCh)
	}
}

func (g *Grow) poolWorker() {
	for m := range g.poolCh {
		m.help()
	}
}

var _ tables.Interface = (*Grow)(nil)
var _ tables.Sizer = (*Grow)(nil)
var _ tables.Ranger = (*Grow)(nil)
var _ tables.MemUser = (*Grow)(nil)
var _ tables.Closer = (*Grow)(nil)

// initiate starts a migration away from src unless one is already
// running. newCap is chosen from the live estimate: double when at least
// a third of the capacity is live, keep the size for pure tombstone
// cleanup (γ=1, §5.4), halve when almost empty (shrinking).
func (g *Grow) initiate(src *Table) {
	if g.mig.Load() != nil || g.cur.Load() != src {
		return
	}
	live := src.c.approxLive()
	newCap := src.capacity * 2
	if live < src.capacity/3 {
		newCap = src.capacity // cleanup only
	}
	if live < src.capacity/8 && src.capacity > 64 {
		newCap = src.capacity / 2 // shrink
	}
	// The target is a shape until launch: only the goroutine that wins
	// the slot allocates its cells. A loser allocates nothing; an op that
	// needs the new table waits on started (assist).
	m := g.migrationTo(src, tableShape(newCap))
	if !g.arm(m) {
		return // lost the slot or the generation race; ops help/wait and retry
	}
	g.launch(m)
}

// migrationTo builds a migration from src into dst whose completion seeds
// dst's per-generation counters with the exact moved element count and
// publishes dst as the current generation. Completion also records the
// migration event (trigger, wall duration, elements copied) on the
// process-wide obs registry; an aborted migration never reaches onDone
// and records nothing.
func (g *Grow) migrationTo(src, dst *Table) *migration {
	trigger := classifyTrigger(src.capacity, dst.capacity)
	start := time.Now()
	return newMigration(src, dst, !g.strategy.synchronized(), func(moved uint64) {
		// moved is exact (the copy visited every live element), so it is
		// the new generation's counter base; deltas still pending in
		// handles were earned on src and flush (or drop) against src.c.
		dst.c.ins.Store(moved)
		g.cur.Store(dst)
		g.mig.Store(nil)
		newGen := g.gen.Add(1)
		trace.Emit(trace.KindMigFlip, moved, newGen, 0)
		recordMigration(trigger, start, moved)
	})
}

// arm claims the migration slot for m, then re-validates that m.src is
// still the current generation.
//
// The re-validation is what makes migration arming safe: the pre-arm guard
// (mig == nil && cur == src) and the slot CAS are not one atomic step, so
// an entire migration cycle — arm, copy, publish — can complete between
// them (small tables migrate in a single block, so the window is wide in
// practice). A CAS that succeeds after such an intervening cycle would arm
// a migration whose src is a *retired* generation; running it would
// republish a snapshot of that old generation as the current table,
// silently rolling back every operation applied since the flip. This was
// the root cause of the rare lost insert/delete under concurrent growth
// (see TestStaleMigrationArmRefused for the deterministic replay).
//
// Once the CAS has succeeded the re-check is decisive: cur changes only in
// an armed migration's onDone, and we hold the only slot, so cur == m.src
// cannot be invalidated afterwards.
func (g *Grow) arm(m *migration) bool {
	if !g.mig.CompareAndSwap(nil, m) {
		return false // someone else's migration is in flight
	}
	if g.cur.Load() != m.src {
		g.mig.Store(nil) // release the slot first: stop new adoptions
		m.abort()        // then release threads that already adopted m
		return false
	}
	trace.Emit(trace.KindMigArm, m.src.capacity, m.dst.capacity, 0)
	return true
}

// launch starts an armed migration per the strategy's recruitment policy.
// It allocates the target's cells first, if the migration was armed with
// a shape: every other thread is held at started until then.
func (g *Grow) launch(m *migration) {
	m.dst.allocCells()
	if g.strategy.synchronized() {
		g.drainBusy()
	}
	close(m.started)
	if g.strategy.pooled() {
		n := cap(g.poolCh)
		for i := 0; i < n; i++ {
			g.poolCh <- m
		}
		return
	}
	// User-thread recruitment (§5.3.2): the triggering access is itself
	// enslaved, guaranteeing the migration makes progress even if no other
	// thread touches the table. Its stall is a growth pause like any
	// helper's — even a single-threaded forced resize records one.
	begin := time.Now()
	m.help()
	migAssist.ObserveSince(begin)
}

// drainBusy waits until every registered handle's busy flag has been
// observed unset at least once (§5.3.2 "Prevent Concurrent Updates"). The
// migration pointer is already published, so no handle can re-enter an
// operation without seeing it.
func (g *Grow) drainBusy() {
	g.busyMu.Lock()
	flags := make([]*pad.Bool, len(g.busys))
	copy(flags, g.busys)
	g.busyMu.Unlock()
	for _, f := range flags {
		for spins := 0; f.Load(); spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
		}
	}
	trace.Emit(trace.KindMigDrain, uint64(len(flags)), 0, 0)
}

// assist is called by an operation that cannot proceed (marked cell, full
// table, or armed migration). It helps or waits per the strategy, then
// the caller retries on the (eventually new) current table. The stall —
// copying blocks or waiting on the pool — is the per-op growth pause,
// recorded into the assist histogram (its count is the helper-op
// count; its p99 is the figure the amortized-migration work targets).
func (g *Grow) assist() {
	m := g.mig.Load()
	if m == nil {
		return // already finished; retry will load the new table
	}
	begin := time.Now()
	if g.strategy.pooled() {
		m.wait()
	} else {
		m.help()
	}
	migAssist.ObserveSince(begin)
}

// maybeTrigger checks the fill trigger after a counter flush.
func (g *Grow) maybeTrigger() {
	t := g.cur.Load()
	if g.mig.Load() != nil {
		return
	}
	if t.c.approxNonempty()*growFillDen >= t.capacity*growFillNum {
		g.initiate(t)
	}
}

// ShrinkToFit migrates into a table sized for the current live count
// (≥ 2·live, power of two). Quiescent callers only in the bounded sense
// that concurrent operations remain correct but may prolong the shrink.
func (g *Grow) ShrinkToFit() {
	src := g.cur.Load()
	if g.mig.Load() != nil {
		g.assist()
		src = g.cur.Load()
	}
	live := src.c.approxLive()
	target := tableShape(2*live + 16)
	if target.capacity >= src.capacity {
		return
	}
	m := g.migrationTo(src, target)
	if !g.arm(m) {
		g.assist()
		return
	}
	g.launch(m)
	m.wait()
}

// Handle returns a goroutine-private accessor (§5.1).
func (g *Grow) Handle() tables.Handle {
	h := &growHandle{g: g, lc: newLocalCounter(handleSeed())}
	if g.strategy.synchronized() {
		h.busy = &pad.Bool{}
		g.busyMu.Lock()
		g.busys = append(g.busys, h.busy)
		g.busyMu.Unlock()
	}
	return h
}

type growHandle struct {
	g    *Grow
	lc   localCounter
	gen  *Table    // generation the pending lc deltas were earned on
	busy *pad.Bool // synchronized variants only
}

// bumpIns/bumpDel credit a successful operation to the generation it ran
// on. Deltas still pending from an older generation are dropped first:
// the migration that retired that generation counted every live element
// exactly (the moved total seeding the successor's counters), so those
// deltas are already represented and flushing them anywhere would
// double-count — the overcount that used to push ApproxSize above the
// exact element count.
func (h *growHandle) bumpIns(t *Table) bool {
	h.retag(t)
	return h.lc.bumpIns(&t.c)
}

func (h *growHandle) bumpDel(t *Table) bool {
	h.retag(t)
	return h.lc.bumpDel(&t.c)
}

func (h *growHandle) retag(t *Table) {
	if h.gen != t {
		h.lc.drop()
		h.gen = t
	}
}

// enter begins an update: in synchronized mode it raises the busy flag
// and backs off if a migration is armed. Returns the table to operate on
// and false if the caller must assist and retry. Finds do not enter
// (Grow.Find): the flag guards updates only.
func (h *growHandle) enter() (*Table, bool) {
	if h.busy != nil {
		h.busy.Store(true)
		if h.g.mig.Load() != nil {
			h.busy.Store(false)
			h.g.assist()
			return nil, false
		}
	}
	return h.g.cur.Load(), true
}

// exit ends an update and, if the counter flushed, checks the grow
// trigger (outside the busy section to keep drainBusy deadlock-free).
func (h *growHandle) exit(flushed bool) {
	if h.busy != nil {
		h.busy.Store(false)
	}
	if flushed {
		h.g.maybeTrigger()
	}
}

// again is the tail every retry loop shares: an operation that did not
// complete on t leaves the busy section, starts a migration if t was
// (locally) full, joins whichever migration is running, and is retried by
// its caller on the next generation. Any other status reaching here is one
// the calling operation cannot return.
func (h *growHandle) again(t *Table, st opStatus) {
	h.exit(false)
	switch st {
	case statusMarked: // met a running migration's mark
	case statusFull:
		h.g.initiate(t)
	default:
		panic(fmt.Sprintf("core: cell operation returned status %d outside its contract", st))
	}
	h.g.assist()
}

func (h *growHandle) Insert(k, d uint64) bool {
	checkKey(k)
	checkValue(d)
	for {
		t, ok := h.enter()
		if !ok {
			continue
		}
		switch st := t.insertCore(k, d); st {
		case statusInserted:
			h.exit(h.bumpIns(t))
			return true
		case statusPresent:
			h.exit(false)
			return false
		default:
			h.again(t, st)
		}
	}
}

func (h *growHandle) Update(k, d uint64, up tables.UpdateFn) bool {
	checkKey(k)
	for {
		t, ok := h.enter()
		if !ok {
			continue
		}
		switch st := t.updateCore(k, d, up); st {
		case statusUpdated:
			h.exit(false)
			return true
		case statusAbsent:
			h.exit(false)
			return false
		default:
			h.again(t, st)
		}
	}
}

func (h *growHandle) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	checkKey(k)
	checkValue(d)
	for {
		t, ok := h.enter()
		if !ok {
			continue
		}
		switch st := t.insertOrUpdateCore(k, d, up); st {
		case statusInserted:
			h.exit(h.bumpIns(t))
			return true
		case statusUpdated:
			h.exit(false)
			return false
		default:
			h.again(t, st)
		}
	}
}

// InsertOrAdd is the aggregation fast path (tables.Adder). The
// synchronized variants use a native fetch-and-add (updates and growing
// cannot overlap, §5.3.2); the marking variants take the CAS loop because
// fetch-and-add cannot coexist with marker bits (§8.4 makes the same
// distinction between usGrow and uaGrow).
func (h *growHandle) InsertOrAdd(k, d uint64) bool {
	if !h.g.strategy.synchronized() {
		return h.InsertOrUpdate(k, d, tables.AddFn)
	}
	checkKey(k)
	checkValue(d)
	for {
		t, ok := h.enter()
		if !ok {
			continue
		}
		switch st := t.insertOrAddCore(k, d); st {
		case statusInserted:
			h.exit(h.bumpIns(t))
			return true
		case statusUpdated:
			h.exit(false)
			return false
		default:
			h.again(t, st)
		}
	}
}

func (h *growHandle) Find(k uint64) (uint64, bool) { return h.g.Find(k) }

func (h *growHandle) Delete(k uint64) bool {
	_, ok := h.LoadAndDelete(k)
	return ok
}

// CompareAndDelete implements tables.CompareAndDeleter. A conditional
// delete that loses to a migration mark retries in the successor
// generation like Delete; the verdict is decided by the conditional CAS
// that finally lands.
func (h *growHandle) CompareAndDelete(k, want uint64) bool {
	checkKey(k)
	checkValue(want)
	for {
		t, ok := h.enter()
		if !ok {
			continue
		}
		switch st := t.compareAndDeleteCore(k, want); st {
		case statusUpdated:
			h.exit(h.bumpDel(t))
			return true
		case statusAbsent, statusMismatch:
			h.exit(false)
			return false
		default:
			h.again(t, st)
		}
	}
}

// LoadAndDelete implements tables.LoadDeleter. A delete that loses to a
// migration mark retries in the successor generation like Delete; the
// value returned is the one removed by the CAS that finally wins.
func (h *growHandle) LoadAndDelete(k uint64) (uint64, bool) {
	checkKey(k)
	for {
		t, ok := h.enter()
		if !ok {
			continue
		}
		switch v, st := t.deleteCore(k); st {
		case statusUpdated:
			h.exit(h.bumpDel(t))
			return v, true
		case statusAbsent:
			h.exit(false)
			return 0, false
		default:
			h.again(t, st)
		}
	}
}
