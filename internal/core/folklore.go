package core

import (
	"sync/atomic"

	"repro/internal/tables"
)

// Folklore is the bounded, non-growing lock-free linear-probing table of
// §4 — the baseline all growing variants build on. Capacity is fixed at
// construction (rounded to the next power of two at least twice the
// expected number of elements, §7); overflowing it panics, mirroring the
// bounded C++ table's contract.
//
// Supported: insert, update (with arbitrary update functions, including a
// native fetch-and-add specialization), insertOrUpdate, wait-free find,
// tombstone deletion (§5.4; dead cells are not reclaimed — that is what
// the growing variants' migration adds), approximate size, range.
type Folklore struct {
	t *Table
}

// NewFolklore builds a bounded table with capacity ≥ 2·expected rounded
// up to a power of two (the paper's sizing rule, §7: 2n ≤ size ≤ 4n).
func NewFolklore(expected uint64) *Folklore {
	return &Folklore{t: NewTable(2 * expected)}
}

// NewFolkloreExact builds a bounded table with the given capacity
// (rounded up to a power of two), for experiments that sweep memory
// footprint (Fig. 10).
func NewFolkloreExact(capacity uint64) *Folklore {
	return &Folklore{t: NewTable(capacity)}
}

// Capacity returns the cell count.
func (f *Folklore) Capacity() uint64 { return f.t.capacity }

// MemBytes reports backing memory (tables.MemUser).
func (f *Folklore) MemBytes() uint64 { return f.t.MemBytes() }

// ApproxSize estimates the number of live elements (§5.2).
func (f *Folklore) ApproxSize() uint64 { return f.t.c.approxLive() }

// Range iterates all live elements; quiescent use only.
func (f *Folklore) Range(fn func(k, v uint64) bool) { f.t.rangeCore(fn) }

// Find looks k up; a find writes nothing and needs no handle.
//
//growt:hotpath
func (f *Folklore) Find(k uint64) (uint64, bool) {
	checkKey(k)
	return f.t.findCore(k)
}

// Handle returns a goroutine-private accessor (§5.1).
func (f *Folklore) Handle() tables.Handle {
	return &folkloreHandle{f: f, lc: newLocalCounter(handleSeed())}
}

var _ tables.Interface = (*Folklore)(nil)
var _ tables.Sizer = (*Folklore)(nil)
var _ tables.Ranger = (*Folklore)(nil)
var _ tables.MemUser = (*Folklore)(nil)

// handleSeedCtr derives distinct seeds for handle-local RNGs.
var handleSeedCtr atomic.Uint64

func handleSeed() uint64 { return handleSeedCtr.Add(0x9E3779B97F4A7C15) }

type folkloreHandle struct {
	f  *Folklore
	lc localCounter
}

func (h *folkloreHandle) Insert(k, d uint64) bool {
	checkKey(k)
	checkValue(d)
	switch h.f.t.insertCore(k, d) {
	case statusInserted:
		h.lc.bumpIns(&h.f.t.c)
		return true
	case statusPresent:
		return false
	default:
		panic("core: folklore table full — size it to ≥2n as the paper does (§7), or use a growing variant")
	}
}

func (h *folkloreHandle) Update(k, d uint64, up tables.UpdateFn) bool {
	checkKey(k)
	return h.f.t.updateCore(k, d, up) == statusUpdated
}

func (h *folkloreHandle) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	checkKey(k)
	checkValue(d)
	switch h.f.t.insertOrUpdateCore(k, d, up) {
	case statusInserted:
		h.lc.bumpIns(&h.f.t.c)
		return true
	case statusUpdated:
		return false
	default:
		panic("core: folklore table full — size it to ≥2n as the paper does (§7), or use a growing variant")
	}
}

// InsertOrAdd is the fetch-and-add specialization (§4's atomicUpdate
// specialization); legal on the bounded table because it never marks.
func (h *folkloreHandle) InsertOrAdd(k, d uint64) bool {
	checkKey(k)
	checkValue(d)
	switch h.f.t.insertOrAddCore(k, d) {
	case statusInserted:
		h.lc.bumpIns(&h.f.t.c)
		return true
	case statusUpdated:
		return false
	default:
		panic("core: folklore table full — size it to ≥2n as the paper does (§7), or use a growing variant")
	}
}

// CompareAndDelete implements tables.CompareAndDeleter: the element is
// tombstoned iff the conditional CAS observes exactly want.
func (h *folkloreHandle) CompareAndDelete(k, want uint64) bool {
	checkKey(k)
	checkValue(want)
	if h.f.t.compareAndDeleteCore(k, want) == statusUpdated {
		h.lc.bumpDel(&h.f.t.c)
		return true
	}
	return false
}

func (h *folkloreHandle) Find(k uint64) (uint64, bool) { return h.f.Find(k) }

func (h *folkloreHandle) Delete(k uint64) bool {
	_, ok := h.LoadAndDelete(k)
	return ok
}

// LoadAndDelete implements tables.LoadDeleter: the removed value is the
// one observed by the tombstoning CAS, so it is exact.
func (h *folkloreHandle) LoadAndDelete(k uint64) (uint64, bool) {
	checkKey(k)
	if v, st := h.f.t.deleteCore(k); st == statusUpdated {
		h.lc.bumpDel(&h.f.t.c)
		return v, true
	}
	return 0, false
}
