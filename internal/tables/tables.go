// Package tables defines the common interface implemented by every hash
// table in this repository — the paper's own variants (folklore, the four
// xyGrow tables) and all reimplemented competitors — plus the
// capability registry behind Table 1 of the paper.
//
// The interface mirrors §4 of the paper:
//
//   - Insert(k,d): fails (returns false) if the key is present; exactly one
//     of multiple concurrent inserters of the same key succeeds.
//   - Update(k,d,up): fails if the key is absent; otherwise atomically
//     applies new = up(current, d).
//   - InsertOrUpdate(k,d,up): insert if absent, else atomic update; returns
//     true iff an insert happened.
//   - Find(k): returns a copy of the value (never a reference — §4's
//     "Lookup" discussion).
//   - Delete(k): removes the key (tombstone or physical, per table).
//
// Threads access tables through handles (§5.1): Handle() returns a
// per-goroutine accessor holding thread-local state (counters, cached
// table pointer). Handles must not be shared between goroutines.
package tables

import (
	"fmt"
	"strings"
)

// UpdateFn computes the new value from the current value and the operand,
// e.g. func(cur, d uint64) uint64 { return cur + d } for aggregation.
type UpdateFn func(current, d uint64) uint64

// Overwrite is the UpdateFn that replaces the stored value with d.
func Overwrite(_, d uint64) uint64 { return d }

// AddFn is the UpdateFn that adds d to the stored value (aggregation).
func AddFn(current, d uint64) uint64 { return current + d }

// Handle is a per-goroutine accessor to a shared table.
type Handle interface {
	// Insert stores ⟨k,d⟩ if k is absent. Returns true iff this call
	// inserted the element.
	Insert(k, d uint64) bool
	// Update atomically changes the value of k to up(current, d).
	// Returns false if k is absent.
	Update(k, d uint64, up UpdateFn) bool
	// InsertOrUpdate inserts ⟨k,d⟩ if absent, else updates like Update.
	// Returns true iff an insert was performed.
	InsertOrUpdate(k, d uint64, up UpdateFn) bool
	// Find returns the value stored at k and whether k is present.
	Find(k uint64) (uint64, bool)
	// Delete removes k. Returns true iff k was present.
	Delete(k uint64) bool
}

// Adder is implemented by handles offering a native fetch-and-add
// insert-or-increment (the paper's atomicUpdate template specialization,
// §4); the aggregation benchmark (Fig. 5) uses it when available.
type Adder interface {
	// InsertOrAdd inserts ⟨k,d⟩ if absent, else atomically adds d to the
	// stored value. Returns true iff an insert was performed.
	InsertOrAdd(k, d uint64) bool
}

// LoadDeleter is implemented by handles whose delete can report the
// removed value atomically (the tombstoning CAS observes the value word
// it clears). The typed facade's LoadAndDelete requires it —
// a find-then-delete emulation could return a value the delete never
// removed.
type LoadDeleter interface {
	// LoadAndDelete removes k and returns the value it held. ok is false
	// (with value 0) when k was absent.
	LoadAndDelete(k uint64) (uint64, bool)
}

// CompareAndDeleter is implemented by handles whose delete can be
// conditioned on the current value atomically (the tombstoning CAS
// compares the value word it clears). The typed facade's
// CompareAndDelete — and the cache layer's expiry/eviction races built
// on it — require it: a find-then-delete emulation could remove a value
// the comparison never saw.
type CompareAndDeleter interface {
	// CompareAndDelete removes k iff its current value equals want.
	// Returns true iff this call removed the element.
	CompareAndDelete(k, want uint64) bool
}

// Sizer is implemented by tables supporting the approximate size
// operation of §5.2.
type Sizer interface {
	// ApproxSize estimates the number of live elements.
	ApproxSize() uint64
}

// Ranger is implemented by tables supporting forall iteration (§4, Bulk
// Operations). Range must only be relied upon in quiescent states.
type Ranger interface {
	// Range calls f for every element until f returns false.
	Range(f func(k, v uint64) bool)
}

// Cursor is a resumable iteration position handed out by RangeFrom. Gen
// identifies the table generation the position is relative to; Pos is an
// implementation-private slot index within that generation. The zero
// Cursor means "start from the beginning". Cursors are plain values:
// they may be stored across calls and survive migrations — a cursor
// whose generation has been retired restarts from position zero in the
// live generation, so a resumed walk may re-visit keys but never skips
// a stable one.
type Cursor struct {
	Gen uint64
	Pos uint64
}

// CursorRanger is implemented by tables whose iteration can resume from
// a Cursor instead of restarting at slot zero. Like Range, results are
// only dependable in quiescent states.
type CursorRanger interface {
	// RangeFrom calls f for elements at or after cur until f returns
	// false or the table is exhausted. It returns the cursor to resume
	// from and whether the walk reached the end of the table (wrapped);
	// when wrapped is true the returned cursor restarts from the
	// beginning.
	RangeFrom(cur Cursor, f func(k, v uint64) bool) (next Cursor, wrapped bool)
}

// MemUser is implemented by tables that report the bytes of live backing
// memory, replacing the paper's malloc interposition in Fig. 10.
type MemUser interface {
	// MemBytes returns the current total size of backing arrays in bytes.
	MemBytes() uint64
}

// Interface is a shared concurrent hash table.
type Interface interface {
	// Handle returns a new per-goroutine accessor.
	Handle() Handle
}

// Closer is implemented by tables that own background resources (the
// dedicated migration pools of paGrow/psGrow).
type Closer interface {
	Close()
}

// Capabilities describes a table for Table 1 of the paper.
type Capabilities struct {
	Name          string // table name as used by the harness
	Plot          string // paper plot marker/color description
	StdInterface  string // access discipline: "handles", "direct", "qsbr function", ...
	Growing       string // "yes", "no", "const factor", "slow", ...
	AtomicUpdates string // "yes", "only overwrite", "locked", ...
	Deletion      bool
	GeneralTypes  bool // arbitrary key/value types
	Reference     string
}

// Maker constructs a table pre-sized for capacity elements.
type Maker func(capacity uint64) Interface

type registration struct {
	caps Capabilities
	mk   Maker
}

var registry []registration

// Register adds a table implementation to the global registry consumed by
// the conformance tests, the benchmark harness, and Table 1 printing.
// Call from package init functions.
func Register(caps Capabilities, mk Maker) {
	registry = append(registry, registration{caps, mk})
}

// All returns the capabilities of every registered table, in registration
// order.
func All() []Capabilities {
	out := make([]Capabilities, 0, len(registry))
	for _, r := range registry {
		out = append(out, r.caps)
	}
	return out
}

// New builds the named registered table. Unknown names return a
// descriptive error listing every registered table, so a typo in a
// benchmark flag or config fails loudly instead of yielding a nil map.
func New(name string, capacity uint64) (Interface, error) {
	for _, r := range registry {
		if r.caps.Name == name {
			return r.mk(capacity), nil
		}
	}
	return nil, fmt.Errorf("tables: unknown table %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns every registered table name, in registration order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, r := range registry {
		out = append(out, r.caps.Name)
	}
	return out
}

// Lookup returns the capabilities for name; ok is false (with zero
// Capabilities) when name is not registered.
func Lookup(name string) (Capabilities, bool) {
	for _, r := range registry {
		if r.caps.Name == name {
			return r.caps, true
		}
	}
	return Capabilities{}, false
}
