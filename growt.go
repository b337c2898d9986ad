// Package growt is a Go implementation of the concurrent hash tables of
//
//	Maier, Sanders, Dementiev: "Concurrent Hash Tables: Fast and
//	General?(!)", PPoPP 2016 (full version arXiv:1601.04017).
//
// It provides the bounded lock-free linear-probing "folklore" table (§4
// of the paper), the four adaptively growing variants uaGrow / usGrow /
// paGrow / psGrow built on scalable cluster migration (§5, §7), the full
// 64-bit key-space wrapper (§5.6), and complex keys (§5.7) through the
// typed facade. The transaction-assisted variants (§6) are not
// reproduced: Go has no hardware transactions (README, paper map).
//
// # Quick start
//
// The primary API is the typed facade: New builds a Map[K, V] for any
// comparable key type and any value type, routing to the right core
// automatically (integer keys → §5.6 full-key word tables, everything
// else, strings included → a hash-to-64-bit codec over the same growing
// tables):
//
//	m := growt.New[uint64, uint64]()        // uaGrow, growing
//	h := m.Handle()                         // one handle per goroutine
//	h.Insert(42, 1)
//	h.InsertOrUpdate(42, 1, growt.Add)      // atomic aggregation
//	v, ok := h.Find(42)
//	h.Delete(42)
//
// Handles (§5.1) are goroutine-private: create one per goroutine, never
// share them. The Map itself is freely shareable, and also offers
// handle-free sync.Map-shaped methods (Load / Store / LoadOrStore /
// Compute / Delete) backed by an internal handle pool:
//
//	counts := growt.New[string, int]()
//	counts.Compute("gopher", 1, growt.Add)
//	n, ok := counts.Load("gopher")
//
// Configuration is by functional options: WithStrategy picks the growing
// variant (§7), WithBounded freezes capacity (§4 folklore), WithHasher
// supplies the hash for generic key types.
//
// # The word-sized layer
//
// The typed facade is a veneer; the paper's tables themselves speak
// 63-bit nonzero keys and 62-bit values (the spare bits drive the cell
// protocol). That layer stays public for benchmarks and embedders:
// NewMap/Options build a WordMap, NewFullKeyMap restores the full 64-bit
// key space (§5.6), and the Close/ApproxSize/Range helpers probe optional
// capabilities by type assertion.
package growt

import (
	"repro/internal/core"
	"repro/internal/tables"
)

// UpdateFn computes a new value from the current value and the operand.
type UpdateFn = tables.UpdateFn

// WordHandle is a goroutine-private accessor of a word-sized table
// (§5.1). The typed facade's analogue is Handle[K, V].
type WordHandle = tables.Handle

// WordMap is a shared word-sized concurrent hash table — the low-level
// layer beneath Map[K, V].
type WordMap = tables.Interface

// Cursor is a resumable iteration position for RangeFrom: a
// generation-tagged slot index. The zero Cursor starts from the
// beginning; a cursor whose generation was retired by a migration
// restarts cleanly (re-visits possible, no stable key skipped).
type Cursor = tables.Cursor

// CursorRanger is the optional capability of word-sized tables whose
// iteration can resume from a Cursor.
type CursorRanger = tables.CursorRanger

// AddFn adds the operand to the stored value (atomic aggregation).
var AddFn = tables.AddFn

// Overwrite replaces the stored value with the operand.
var Overwrite = tables.Overwrite

// Strategy selects a growing variant (§7).
type Strategy = core.Strategy

// The four growing strategies: {user-thread, pool} recruitment ×
// {asynchronous marking, synchronized} consistency.
const (
	UAGrow = core.UA
	USGrow = core.US
	PAGrow = core.PA
	PSGrow = core.PS
)

const (
	// MaxKey is the largest key of the word-sized tables.
	MaxKey = core.MaxKey
	// MaxValue is the largest value of the word-sized tables.
	MaxValue = core.MaxValue
)

// Options configures NewMap.
type Options struct {
	// Strategy picks the growing variant; default UAGrow (the paper's
	// headline configuration).
	Strategy Strategy
	// InitialCapacity is the starting cell count; default 4096 (the
	// paper's growing benchmarks start there). Rounded up to a power of
	// two.
	InitialCapacity uint64
	// Bounded disables growing: the table is a folklore table with
	// capacity 2×Expected (§4). Expected must then be set.
	Bounded bool
	// Expected is the expected number of elements for bounded tables.
	Expected uint64
}

// NewMap builds a word-sized concurrent hash table per opts.
func NewMap(opts Options) WordMap {
	if opts.Bounded {
		n := opts.Expected
		if n == 0 {
			n = 1 << 20
		}
		return core.NewFolklore(n)
	}
	capacity := opts.InitialCapacity
	if capacity == 0 {
		capacity = defaultInitialCapacity
	}
	return core.NewGrow(opts.Strategy, capacity)
}

// NewFolklore builds the bounded folklore table of §4 sized for expected
// elements (capacity 2×expected, the paper's rule).
func NewFolklore(expected uint64) *core.Folklore { return core.NewFolklore(expected) }

// NewGrow builds a growing table with the given strategy (§5, §7).
func NewGrow(s Strategy, initialCapacity uint64) *core.Grow {
	return core.NewGrow(s, initialCapacity)
}

// NewFullKeyMap wraps tables built by mk into a map accepting the entire
// 64-bit key space (§5.6 two-subtable construction).
func NewFullKeyMap(mk func() WordMap) *core.FullKeys { return core.NewFullKeys(mk) }

// Close releases background resources if the map owns any (the dedicated
// migration pools of paGrow/psGrow). Safe to call on any WordMap.
func Close(m WordMap) {
	if c, ok := m.(tables.Closer); ok {
		c.Close()
	}
}

// ApproxSize returns the map's size estimate (§5.2) if it supports one.
func ApproxSize(m WordMap) (uint64, bool) {
	if s, ok := m.(tables.Sizer); ok {
		return s.ApproxSize(), true
	}
	return 0, false
}

// Range iterates the map if it supports iteration (quiescent use only).
func Range(m WordMap, f func(k, v uint64) bool) bool {
	if r, ok := m.(tables.Ranger); ok {
		r.Range(f)
		return true
	}
	return false
}

// RangeFrom resumes iteration at cur if the map supports resumable
// cursors (quiescent use only). ok is false when it does not; next and
// wrapped follow CursorRanger semantics.
func RangeFrom(m WordMap, cur Cursor, f func(k, v uint64) bool) (next Cursor, wrapped, ok bool) {
	if r, isCR := m.(tables.CursorRanger); isCR {
		next, wrapped = r.RangeFrom(cur, f)
		return next, wrapped, true
	}
	return Cursor{}, false, false
}
