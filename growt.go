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
// The API is the typed facade: New builds a Map[K, V] for any comparable
// key type and any value type, routing the pair to the right backend
// automatically (key and value both built-in integers or bools → the
// elements sit in the cells of §5.6 full-key word tables; every other
// pair, string keys and wide values included → a hash-to-64-bit codec
// over the same growing tables, which gives back what a deleted key
// held):
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
// supplies the hash for the generic route.
//
// The typed facade is a veneer; the paper's tables themselves speak
// 63-bit nonzero keys and 62-bit values (the spare bits drive the cell
// protocol). They live in internal/core, are listed with every
// competitor in the internal/tables registry, and are driven directly by
// cmd/growbench.
package growt

import (
	"repro/internal/core"
	"repro/internal/tables"
)

// Cursor is a resumable iteration position for RangeFrom: a
// generation-tagged slot index. The zero Cursor starts from the
// beginning; a cursor whose generation was retired by a migration
// restarts cleanly (re-visits possible, no stable key skipped).
type Cursor = tables.Cursor

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
