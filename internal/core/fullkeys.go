package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tables"
)

// FullKeys restores the complete 64-bit key space over a core table
// (§5.6). The core reserves key 0 (empty), the top bit (pending) and the
// all-ones pattern (frozen); FullKeys lifts all three restrictions with
// the paper's two devices:
//
//   - two subtables t0/t1 store keys with the top bit clear/set, the bit
//     itself removed before storing — "storing the lost bit implicitly";
//   - the handful of keys that collide with reserved patterns after the
//     bit strip (0 and 2^63-1) live in dedicated special slots on the
//     global object ("two special slots in the global hash table data
//     structure").
//
// Values keep the core's 62-bit domain.
type FullKeys struct {
	t0, t1 tables.Interface
	f0, f1 finder // t0, t1 as handle-free finders; Handle refuses a subtable that is none

	mu      sync.RWMutex
	special map[uint64]uint64 // the ≤4 reserved-pattern keys
}

// NewFullKeys wraps a pair of tables built by mk (one per key half-space).
// The tables must find without a handle, and their handles must be a
// tables.CompareAndDeleter and a tables.LoadDeleter, as every table in
// this package does: Handle panics otherwise.
func NewFullKeys(mk func() tables.Interface) *FullKeys {
	f := &FullKeys{t0: mk(), t1: mk(), special: make(map[uint64]uint64, 4)}
	f.f0, _ = f.t0.(finder)
	f.f1, _ = f.t1.(finder)
	return f
}

// finder is a table that looks a key up without a handle: a find writes
// nothing (Grow.Find, Folklore.Find).
type finder interface {
	Find(k uint64) (uint64, bool)
}

// Find looks k up without a handle; the special slots are read under the
// read lock.
//
//growt:hotpath
func (f *FullKeys) Find(k uint64) (uint64, bool) {
	hi, core, special := split(k)
	if special {
		f.mu.RLock()
		defer f.mu.RUnlock()
		v, ok := f.special[k]
		return v, ok
	}
	if hi {
		return f.f1.Find(core)
	}
	return f.f0.Find(core)
}

const fullTopBit = uint64(1) << 63

// split maps a user key to (subtable index, stored core key, isSpecial).
func split(k uint64) (hi bool, core uint64, special bool) {
	hi = k&fullTopBit != 0
	core = k &^ fullTopBit
	if core == 0 || core >= frozenKey {
		return hi, 0, true
	}
	return hi, core, false
}

// Generation sums the completed-migration counts of the two growing
// subtables (a bounded subtable has no generations and contributes
// zero). Monotone: every finished migration in either half advances it
// by one, so an operation stamped with the value it read ran against a
// table state the next migration retired.
func (f *FullKeys) Generation() uint64 {
	var n uint64
	if g, ok := f.t0.(interface{ Generation() uint64 }); ok {
		n += g.Generation()
	}
	if g, ok := f.t1.(interface{ Generation() uint64 }); ok {
		n += g.Generation()
	}
	return n
}

// Handle returns a goroutine-private accessor.
func (f *FullKeys) Handle() tables.Handle {
	return &fullKeysHandle{f: f, h0: subHandleOf(f.t0), h1: subHandleOf(f.t1)}
}

// subHandle is what FullKeys needs of a subtable's handle: the wrapper's
// conditional and value-reporting deletes are atomic only as the
// subtable's own.
type subHandle interface {
	tables.Handle
	tables.CompareAndDeleter
	tables.LoadDeleter
}

func subHandleOf(t tables.Interface) subHandle {
	h, ok := t.Handle().(subHandle)
	if !ok {
		panic(fmt.Sprintf("core: FullKeys over %T, whose handles are not a tables.CompareAndDeleter and a tables.LoadDeleter", t))
	}
	if _, ok := t.(finder); !ok {
		panic(fmt.Sprintf("core: FullKeys over %T, which does not find without a handle", t))
	}
	return h
}

var _ tables.Interface = (*FullKeys)(nil)

// ApproxSize sums the subtables' estimates plus the special slots.
func (f *FullKeys) ApproxSize() uint64 {
	var n uint64
	if s, ok := f.t0.(tables.Sizer); ok {
		n += s.ApproxSize()
	}
	if s, ok := f.t1.(tables.Sizer); ok {
		n += s.ApproxSize()
	}
	f.mu.RLock()
	n += uint64(len(f.special))
	f.mu.RUnlock()
	return n
}

// Range iterates the full-key map (quiescent use only, like every Range
// in this repository): subtable keys are re-widened — t1 keys get the
// stripped top bit restored — and the special slots are appended last.
func (f *FullKeys) Range(fn func(k, v uint64) bool) {
	stopped := false
	if r, ok := f.t0.(tables.Ranger); ok {
		r.Range(func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
			}
			return !stopped
		})
	}
	if stopped {
		return
	}
	if r, ok := f.t1.(tables.Ranger); ok {
		r.Range(func(k, v uint64) bool {
			if !fn(k|fullTopBit, v) {
				stopped = true
			}
			return !stopped
		})
	}
	if stopped {
		return
	}
	// Snapshot the ≤4 special slots before calling fn, so a callback that
	// mutates a special key (taking f.mu.Lock) cannot self-deadlock.
	f.mu.RLock()
	special := make(map[uint64]uint64, len(f.special))
	for k, v := range f.special {
		special[k] = v
	}
	f.mu.RUnlock()
	for k, v := range special {
		if !fn(k, v) {
			return
		}
	}
}

var _ tables.Ranger = (*FullKeys)(nil)

// fkSegShift packs the walk phase into the top two bits of Cursor.Pos:
// 0 = t0, 1 = t1, 2 = the special slots. The low 62 bits are the
// phase's own resumable position (a slot index, far below 2^62).
const fkSegShift = 62

// rangeSeg walks one subtable phase from inner, widening stored keys
// with the given bit. It reports where to resume, whether fn stopped
// the walk, and whether the phase was exhausted. A subtable without
// CursorRanger support degrades to restart-at-phase-start on an early
// stop: re-visits are possible, skips are not.
func rangeSeg(sub tables.Interface, inner tables.Cursor, widen uint64, fn func(k, v uint64) bool) (next tables.Cursor, stopped, wrapped bool) {
	wrap := func(k, v uint64) bool {
		if !fn(k|widen, v) {
			stopped = true
		}
		return !stopped
	}
	if cr, ok := sub.(tables.CursorRanger); ok {
		next, wrapped = cr.RangeFrom(inner, wrap)
		return next, stopped, wrapped
	}
	if r, ok := sub.(tables.Ranger); ok {
		r.Range(wrap)
	}
	return tables.Cursor{}, stopped, !stopped
}

// RangeFrom resumes the three-phase walk of Range from cur
// (tables.CursorRanger; quiescent use only). The special slots are
// snapshotted and walked in ascending key order so their positions are
// deterministic across calls.
func (f *FullKeys) RangeFrom(cur tables.Cursor, fn func(k, v uint64) bool) (tables.Cursor, bool) {
	seg := cur.Pos >> fkSegShift
	inner := tables.Cursor{Gen: cur.Gen, Pos: cur.Pos & (1<<fkSegShift - 1)}
	if seg > 2 {
		seg, inner = 0, tables.Cursor{}
	}

	if seg == 0 {
		next, stopped, wrapped := rangeSeg(f.t0, inner, 0, fn)
		switch {
		case stopped && wrapped:
			return tables.Cursor{Pos: 1 << fkSegShift}, false
		case stopped:
			return next, false
		}
		seg, inner = 1, tables.Cursor{}
	}
	if seg == 1 {
		next, stopped, wrapped := rangeSeg(f.t1, inner, fullTopBit, fn)
		switch {
		case stopped && wrapped:
			return tables.Cursor{Pos: 2 << fkSegShift}, false
		case stopped:
			return tables.Cursor{Gen: next.Gen, Pos: next.Pos | 1<<fkSegShift}, false
		}
		inner = tables.Cursor{}
	}

	// Phase 2: the ≤4 special slots, snapshotted like Range does so fn
	// may mutate them without self-deadlock.
	f.mu.RLock()
	type kv struct{ k, v uint64 }
	snap := make([]kv, 0, len(f.special))
	for k, v := range f.special {
		snap = append(snap, kv{k, v})
	}
	f.mu.RUnlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].k < snap[j].k })
	for i := inner.Pos; i < uint64(len(snap)); i++ {
		if !fn(snap[i].k, snap[i].v) {
			if i+1 >= uint64(len(snap)) {
				return tables.Cursor{}, true
			}
			return tables.Cursor{Pos: 2<<fkSegShift | (i + 1)}, false
		}
	}
	return tables.Cursor{}, true
}

var _ tables.CursorRanger = (*FullKeys)(nil)

// Close closes the subtables if they own resources.
func (f *FullKeys) Close() {
	if c, ok := f.t0.(tables.Closer); ok {
		c.Close()
	}
	if c, ok := f.t1.(tables.Closer); ok {
		c.Close()
	}
}

type fullKeysHandle struct {
	f      *FullKeys
	h0, h1 subHandle
}

func (h *fullKeysHandle) sub(hi bool) subHandle {
	if hi {
		return h.h1
	}
	return h.h0
}

func (h *fullKeysHandle) Insert(k, d uint64) bool {
	hi, core, special := split(k)
	if special {
		h.f.mu.Lock()
		defer h.f.mu.Unlock()
		if _, ok := h.f.special[k]; ok {
			return false
		}
		h.f.special[k] = d
		return true
	}
	return h.sub(hi).Insert(core, d)
}

func (h *fullKeysHandle) Update(k, d uint64, up tables.UpdateFn) bool {
	hi, core, special := split(k)
	if special {
		h.f.mu.Lock()
		defer h.f.mu.Unlock()
		cur, ok := h.f.special[k]
		if !ok {
			return false
		}
		h.f.special[k] = up(cur, d)
		return true
	}
	return h.sub(hi).Update(core, d, up)
}

func (h *fullKeysHandle) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	hi, core, special := split(k)
	if special {
		h.f.mu.Lock()
		defer h.f.mu.Unlock()
		if cur, ok := h.f.special[k]; ok {
			h.f.special[k] = up(cur, d)
			return false
		}
		h.f.special[k] = d
		return true
	}
	return h.sub(hi).InsertOrUpdate(core, d, up)
}

func (h *fullKeysHandle) Find(k uint64) (uint64, bool) { return h.f.Find(k) }

func (h *fullKeysHandle) Delete(k uint64) bool {
	hi, core, special := split(k)
	if special {
		h.f.mu.Lock()
		defer h.f.mu.Unlock()
		if _, ok := h.f.special[k]; !ok {
			return false
		}
		delete(h.f.special, k)
		return true
	}
	return h.sub(hi).Delete(core)
}

// CompareAndDelete implements tables.CompareAndDeleter.
func (h *fullKeysHandle) CompareAndDelete(k, want uint64) bool {
	hi, core, special := split(k)
	if special {
		h.f.mu.Lock()
		defer h.f.mu.Unlock()
		if v, ok := h.f.special[k]; ok && v == want {
			delete(h.f.special, k)
			return true
		}
		return false
	}
	return h.sub(hi).CompareAndDelete(core, want)
}

// LoadAndDelete implements tables.LoadDeleter.
func (h *fullKeysHandle) LoadAndDelete(k uint64) (uint64, bool) {
	hi, core, special := split(k)
	if special {
		h.f.mu.Lock()
		defer h.f.mu.Unlock()
		v, ok := h.f.special[k]
		if ok {
			delete(h.f.special, k)
		}
		return v, ok
	}
	return h.sub(hi).LoadAndDelete(core)
}
