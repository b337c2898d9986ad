// Package core implements the paper's primary contribution: the folklore
// bounded lock-free linear-probing hash table (§4) and its generalization
// to adaptively sized tables via scalable cluster migration (§5), in the
// four strategy combinations uaGrow / usGrow / paGrow / psGrow (§7).
//
// # Cell protocol
//
// The paper's C++ implementation manipulates a 128-bit ⟨key,value⟩ cell
// with cmpxchg16b. Go has no 128-bit CAS, so cells here are two adjacent
// uint64 words with a split-word protocol (cf. §2's remark that the table
// can be ported to machines without wide CAS by reserving special values):
//
//	key word:   [63: pending][62..0: key]      (0 = empty cell)
//	value word: [63: marked][62: live][61..0: value]
//
// The key word is written at most twice, by the unique claiming inserter:
// CAS(0 → key|pending), then Store(key) after the value is published. It
// never changes afterwards, so all post-insert mutation — updates,
// deletions (clearing the live bit), and migration marking — happens on
// the single value word with ordinary 64-bit CAS. This gives the same
// linearization structure as the paper's wide-CAS cells with no cross-word
// write races. Probe chains treat any published key as occupying its cell
// (a dead cell — live bit clear — is the paper's tombstone and is scanned
// over, §5.4); re-inserting a key that owns a tombstone revives the cell
// in place with a value CAS.
//
// Keys are therefore 63-bit (0 reserved) and values 62-bit; the FullKeys
// wrapper (fullkeys.go) restores the complete 64-bit key space with the
// two-subtable construction of §5.6.
//
// # Cell state machine
//
// Key word states: E = 0 (empty), P = k|pending (claim in flight),
// K = k (published), F = frozenKey (migration-frozen empty cell).
// Value word states: Z = 0, L = live (liveBit set, marked clear),
// T = tombstone (liveBit and markedBit clear, key published),
// M = marked (markedBit set, any other bits).
//
// Legal transitions and the only writer allowed to perform each:
//
//	key word                             value word
//	E ─casKey──▶ P   claiming inserter   Z ─casVal──▶ L   the cell's claiming inserter
//	P ─storeKey▶ K   same inserter       L ─casVal──▶ L'  any updater (update/upsert/add)
//	E ─casKey──▶ F   migrator            L ─casVal──▶ T   any deleter (clears liveBit)
//	                                     T ─casVal──▶ L   any inserter (tombstone revival)
//	                                     v ─casVal──▶ v|M migrator (mark; idempotent)
//
// K and F are terminal for the key word; M is terminal for the value word.
// Invariants the protocol rests on:
//
//  1. The key word is written at most twice, both times by the unique
//     claiming inserter (or once, by the unique freezing migrator). Once
//     published or frozen it never changes, so a value-word CAS loop that
//     validated the key beforehand can never act on a foreign cell.
//  2. Every non-mark value mutation is a CAS whose expected value was
//     loaded after checking markedBit, so it fails if a migrator marked
//     the cell in between — no update can land after (or be lost by) the
//     migration copy, which reads the value only after setting the mark.
//  3. A claim that loses the value-word race against a mark (casVal(Z→L)
//     fails) publishes its key anyway and leaves the cell dead AND marked
//     (key K, value M with liveBit clear): probe chains treat it as a
//     tombstone, stabilize treats it as consumed-by-migration, and the
//     insert retries in the next generation. Both views agree the element
//     is absent from this generation.
//  4. Value words of unpublished cells (key E or P) are written only by
//     the cell's claiming inserter and the marking migrator — so a failed
//     casVal(Z→L) proves markedBit was set, which claim asserts.
//
// The probe is spelled once per kind: claim is the only code that writes
// k|pending, publishes a key, or leaves a cell dead-and-marked
// (invariants 3 and 4); locate finds k's published cell without writing.
// Every mutating operation is one of the two plus its own value-word CAS
// loop (invariant 2); findCore, which never writes, keeps its own probe.
//
// Migration arming (grow.go) has its own generation invariant: a
// migration may only be armed for the table that is *still current* once
// the migration slot is held, re-validated after the slot CAS (see
// Grow.arm). Violating it republishes a retired generation's snapshot and
// silently rolls back operations — the historical lost-op bug.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/hashfn"
)

const (
	pendingBit = uint64(1) << 63
	keyMask    = pendingBit - 1

	markedBit = uint64(1) << 63
	liveBit   = uint64(1) << 62
	valueMask = liveBit - 1

	// MaxKey is the largest key storable without the FullKeys wrapper
	// (keyMask itself is the reserved frozen-cell sentinel, migrate.go).
	MaxKey = keyMask - 1
	// MaxValue is the largest storable value.
	MaxValue = valueMask
)

// opStatus is the outcome of a low-level cell operation. Handlers
// switch over it; growvet's statusswitch analyzer keeps those switches
// exhaustive so a new status cannot silently fall through a retry loop.
type opStatus uint8

//growt:enum opstatus
const (
	statusInserted opStatus = iota // new element written
	statusUpdated                  // existing element changed
	statusPresent                  // insert refused: key already live
	statusAbsent                   // update/delete/find refused: key not live
	statusMarked                   // hit a marked cell: help migration, retry in new table
	statusFull                     // probe limit exceeded: table (locally) full
	statusMismatch                 // conditional delete refused: value differs
)

// longProbeLimit bounds the probe distance before an insert reports the
// table full. The paper sizes the folklore table to ≥2n so expected probe
// distances stay O(1); hitting this limit either signals a mis-sized
// bounded table or triggers a migration in the growing variants.
const longProbeLimit = 4096

// Table is one bounded, fixed-capacity folklore table generation. The
// growing variants chain generations through migrations; the Folklore
// wrapper uses a single generation forever.
type Table struct {
	// cells holds the split-word cell array concurrent goroutines race
	// on; every access must go through the atomic accessors below
	// (growvet: atomiccell).
	//growt:atomic
	cells    []uint64 // interleaved: cells[2i] key word, cells[2i+1] value word
	capacity uint64
	shift    uint // index = hash >> shift (scaled mapping, §5.3.1)
	logCap   uint
	probeCap uint64 // min(capacity, longProbeLimit)
	gen      uint64 // process-unique generation id for resumable cursors

	// c is this generation's approximate element count (§5.2), owned by
	// the Grow wrapper. Counters live per generation — not on Grow — so a
	// migration can seed the new generation with the exact moved count
	// while late flushes of deltas earned on the retired generation land
	// harmlessly in the retired generation's counters. A single shared
	// counter would have to be destructively reset at the flip, and any
	// handle flushing a pre-flip delta afterwards would double-count
	// elements already included in the moved total (overcounting breaks
	// the estimate's undercount-only guarantee). The bounded Folklore
	// wrapper counts in its single generation's.
	c counters
}

// NewTable allocates a zeroed generation with capacity rounded up to a
// power of two (§7 restricts capacities to powers of two so the modulo
// becomes a shift).
//
//growt:exclusive -- construction: the table is unpublished, no concurrent readers
func NewTable(capacity uint64) *Table {
	if capacity < 8 {
		capacity = 8
	}
	logCap := uint(bits.Len64(capacity - 1))
	capacity = uint64(1) << logCap
	t := &Table{
		cells:    make([]uint64, 2*capacity),
		capacity: capacity,
		shift:    64 - logCap,
		logCap:   logCap,
		probeCap: min(capacity, longProbeLimit),
		gen:      tableGen.Add(1),
	}
	return t
}

// tableGen hands every Table a process-unique, nonzero generation id, so
// a tables.Cursor can detect that the generation it was taken against has
// been retired by a migration (id 0 is reserved for "no cursor").
var tableGen atomic.Uint64

// Capacity returns the number of cells.
func (t *Table) Capacity() uint64 { return t.capacity }

// MemBytes returns the size of the backing array.
func (t *Table) MemBytes() uint64 { return uint64(len(t.cells)) * 8 }

// index maps a hash to its home cell using the high bits, preserving the
// order required by the cluster migration lemma (Lemma 1).
func (t *Table) index(h uint64) uint64 { return h >> t.shift }

func (t *Table) loadKey(i uint64) uint64 { return atomic.LoadUint64(&t.cells[2*i]) }
func (t *Table) loadVal(i uint64) uint64 { return atomic.LoadUint64(&t.cells[2*i+1]) }
func (t *Table) storeKey(i, k uint64)    { atomic.StoreUint64(&t.cells[2*i], k) }
func (t *Table) storeVal(i, v uint64)    { atomic.StoreUint64(&t.cells[2*i+1], v) }
func (t *Table) casKey(i, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&t.cells[2*i], old, new)
}
func (t *Table) casVal(i, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&t.cells[2*i+1], old, new)
}
func (t *Table) addVal(i, d uint64) uint64 { return atomic.AddUint64(&t.cells[2*i+1], d) }

// waitKey spins until the cell's key word is no longer pending and
// returns it. The pending window is two store instructions wide; Gosched
// keeps the spin polite if the claiming goroutine was preempted.
//
//growt:hotpath
func (t *Table) waitKey(i uint64) uint64 {
	for spins := 0; ; spins++ {
		kw := t.loadKey(i)
		if kw&pendingBit == 0 {
			return kw
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// checkKey panics on keys outside the 63-bit core domain. The public
// wrappers either document the restriction or lift it (§5.6).
func checkKey(k uint64) {
	if k == 0 || k > MaxKey {
		panic(fmt.Sprintf("core: key %#x outside the core domain 1..2^63-1; use the FullKeys wrapper (§5.6)", k))
	}
}

func checkValue(v uint64) {
	if v > MaxValue {
		panic(fmt.Sprintf("core: value %#x exceeds 62 bits", v))
	}
}

// claim probes to k's cell, claiming the first empty cell on the way with
// ⟨k,d⟩ (Algorithm 1's probe). It is the only place that writes
// k|pendingBit, publishes a key, or leaves a cell dead-and-marked. Results:
//
//	statusInserted  claimed cell i and published ⟨k,d⟩ live in it
//	statusMarked    claimed cell i but a migrator marked it first: the cell
//	                is left dead AND marked, the element is absent here
//	statusPresent   cell i already carries k, published (live, tombstone or
//	                marked — the caller's value-word loop decides)
//	statusFull      probe limit exceeded
//
// A pending claim of k by another inserter is waited out (the caller's
// operation must apply to that element); a foreign pending claim is
// walked over like any foreign key.
//
//growt:hotpath
func (t *Table) claim(k, d uint64) (uint64, opStatus) {
	i := t.index(hashfn.Hash64(k))
	mask := t.capacity - 1
	for probes := uint64(0); probes <= t.probeCap; probes++ {
		kw := t.loadKey(i)
		if kw == 0 {
			if t.casKey(i, 0, k|pendingBit) {
				// Publish the value, then the key. Only the marking migrator
				// may write the value word of an unpublished cell (protocol
				// invariant 4), so this CAS fails only against a mark.
				if t.casVal(i, 0, d|liveBit) {
					t.storeKey(i, k)
					return i, statusInserted
				}
				// Marked mid-claim: the consumed cell must end dead AND
				// marked (protocol invariant 3) so that probe chains (which
				// see a tombstone) and stabilize (which sees a consumed,
				// dead cell it will not copy) agree the element is absent
				// here. Publishing the key also guarantees probers never
				// spin on our pending bit. The insert then retries in the
				// next generation.
				if t.loadVal(i)&markedBit == 0 {
					panic("core: claim value CAS failed on an unmarked cell — cell protocol violated")
				}
				t.storeKey(i, k)
				return i, statusMarked
			}
			// Lost the claim race: re-examine this same cell (Alg. 1, i--).
			kw = t.loadKey(i)
		}
		if kw&keyMask == k {
			if kw&pendingBit != 0 {
				t.waitKey(i)
			}
			return i, statusPresent
		}
		i = (i + 1) & mask
	}
	return 0, statusFull
}

// locate probes to k's published cell without writing. A pending insert
// of k reads as absent — the caller linearizes before it and never spins
// — and so does running off the probe limit.
//
//growt:hotpath
func (t *Table) locate(k uint64) (uint64, bool) {
	i := t.index(hashfn.Hash64(k))
	mask := t.capacity - 1
	for probes := uint64(0); probes <= t.probeCap; probes++ {
		kw := t.loadKey(i)
		if kw == 0 {
			return 0, false
		}
		if kw&keyMask == k {
			return i, kw&pendingBit == 0
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// recheckKey re-validates, after a failed value-word CAS, that cell i
// still belongs to key k. Today this can never fire: a published key word
// is terminal (state machine above), so a value CAS can only lose against
// other value-word writers of the same key's cell. The re-check pins that
// assumption down — if cell reuse or key-word recycling is ever
// introduced, every update/delete/revive loop fails loudly here instead
// of silently acting on a cell that was re-claimed between its key load
// and its value CAS. It sits on CAS-failure paths only, so it costs
// nothing on uncontended operations.
func (t *Table) recheckKey(i, k uint64) {
	if kw := t.loadKey(i) & keyMask; kw != k {
		panic(fmt.Sprintf("core: cell %d changed owner %#x → %#x under a value CAS — published key words must be immutable", i, k, kw))
	}
}

// insertCore attempts to insert ⟨k,d⟩: claim, or revive k's tombstone in
// place. Precondition: checkKey/checkValue.
//
//growt:hotpath
func (t *Table) insertCore(k, d uint64) opStatus {
	i, st := t.claim(k, d)
	if st != statusPresent {
		return st
	}
	for {
		v := t.loadVal(i)
		if v&markedBit != 0 {
			return statusMarked
		}
		if v&liveBit != 0 {
			return statusPresent
		}
		// Tombstone owned by k: revive in place.
		if t.casVal(i, v, d|liveBit) {
			return statusInserted
		}
		t.recheckKey(i, k)
	}
}

// updateCore applies up to the element with key k, if it is live: locate
// (a pending insert of k linearizes after this update, which reads
// absent), then the mark-checked CAS loop of invariant 2.
//
//growt:hotpath
func (t *Table) updateCore(k, d uint64, up func(cur, d uint64) uint64) opStatus {
	i, ok := t.locate(k)
	if !ok {
		return statusAbsent
	}
	for {
		v := t.loadVal(i)
		if v&markedBit != 0 {
			return statusMarked
		}
		if v&liveBit == 0 {
			return statusAbsent
		}
		nv := up(v&valueMask, d)&valueMask | liveBit
		if t.casVal(i, v, nv) {
			return statusUpdated
		}
		t.recheckKey(i, k)
	}
}

// insertOrUpdateCore implements Algorithm 1 of the paper: claim, or — the
// key being there already, possibly after waiting out a concurrent insert
// of it, since insertOrUpdate cannot fail — update or revive its element.
//
//growt:hotpath
func (t *Table) insertOrUpdateCore(k, d uint64, up func(cur, d uint64) uint64) opStatus {
	i, st := t.claim(k, d)
	if st != statusPresent {
		return st
	}
	for {
		v := t.loadVal(i)
		if v&markedBit != 0 {
			return statusMarked
		}
		if v&liveBit == 0 {
			if t.casVal(i, v, d|liveBit) {
				return statusInserted
			}
			t.recheckKey(i, k)
			continue
		}
		nv := up(v&valueMask, d)&valueMask | liveBit
		if t.casVal(i, v, nv) {
			return statusUpdated
		}
		t.recheckKey(i, k)
	}
}

// insertOrAddCore is the fetch-and-add specialization of insertOrUpdate
// used by the synchronized variants (usGrow/psGrow), mirroring the
// paper's partial template specialization of atomicUpdate (§4). It must
// only be called when migration marking cannot run concurrently: the
// unconditional addVal below cannot lose against a mark the way a CAS
// does, so an addend landing after the mark would corrupt the marked
// value word and be silently dropped by the copy — the same bug family as
// the stale-arm migration race. The exclusion holds today because every
// caller is either the bounded Folklore table (never marks) or a
// synchronized growing variant (writers drained via busy flags before
// marking-free migration, §5.3.2 "Prevent Concurrent Updates"); the
// marking variants route InsertOrAdd through the CAS-loop
// insertOrUpdateCore instead. The addVal result is asserted below so any
// future violation of this contract fails loudly rather than losing the
// update.
//
//growt:hotpath
func (t *Table) insertOrAddCore(k, d uint64) opStatus {
	i, st := t.claim(k, d)
	if st != statusPresent {
		return st
	}
	for {
		v := t.loadVal(i)
		if v&liveBit == 0 {
			if v&markedBit != 0 {
				return statusMarked
			}
			if t.casVal(i, v, d|liveBit) {
				return statusInserted
			}
			t.recheckKey(i, k)
			continue
		}
		// Live: unconditional fetch-and-add on the value word. A
		// racing delete can clear the live bit first; the pre-add
		// word (nv - d is exact: addVal returns old + our d) tells
		// us which case we hit.
		nv := t.addVal(i, d)
		pre := nv - d
		if nv&markedBit != 0 {
			if pre&markedBit != 0 {
				// The addend landed on an already-marked word; the
				// migration copy may already have read the value, so
				// the update would be lost. The caller broke the
				// writers-excluded contract above.
				panic("core: insertOrAddCore raced a marking migration — synchronized-mode exclusion violated")
			}
			// The sum itself carried out of the 62-bit value domain
			// through the live bit into the marked bit. The pre-fix
			// code silently corrupted the cell in this case; failing
			// loudly is the only honest option short of saturating
			// arithmetic.
			panic(fmt.Sprintf("core: InsertOrAdd sum overflowed the 62-bit value domain for key %#x", k))
		}
		if pre&liveBit != 0 {
			// The cell was live when the add landed; nv's live bit
			// is still set (a carry out of the value bits would have
			// reached markedBit and panicked above).
			return statusUpdated
		}
		// The addend landed in a tombstone: it is invisible only
		// while the dead cell's value bits stay below the live bit.
		// A large residue (earlier adds that also landed dead) plus
		// d can carry INTO the live bit, making the dead cell read
		// as live with a garbage value — a silent resurrection the
		// old code's "retry the revive path" comment overlooked.
		// Undoing the add races other writers, so fail loudly; the
		// benign no-carry case retries the revive path as before.
		if nv&liveBit != 0 {
			panic(fmt.Sprintf("core: InsertOrAdd addend carried into the live bit of a tombstone for key %#x (value domain overflow on a dead cell)", k))
		}
	}
}

// findCore looks up k. Wait-free: never spins, never writes. Marked cells
// remain readable during migration (§5.3.2).
//
//growt:hotpath
func (t *Table) findCore(k uint64) (uint64, bool) {
	h := hashfn.Hash64(k)
	i := t.index(h)
	mask := t.capacity - 1
	for probes := uint64(0); probes <= t.probeCap; probes++ {
		kw := t.loadKey(i)
		if kw == 0 {
			return 0, false
		}
		if kw == k { // pending bit clear and key match
			v := t.loadVal(i)
			if v&liveBit == 0 {
				return 0, false
			}
			return v & valueMask, true
		}
		if kw&keyMask == k {
			// Pending insert of k: linearize the find before it.
			return 0, false
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// deleteCore tombstones k (§5.4): the key word stays, the live bit is
// cleared, probe chains scan over the dead cell. On statusUpdated the
// first return is the value the winning CAS removed — the tombstoning
// CAS is the linearization point, so the value is exact, which is what
// backs the facade's LoadAndDelete.
//
//growt:hotpath
func (t *Table) deleteCore(k uint64) (uint64, opStatus) {
	i, ok := t.locate(k)
	if !ok {
		return 0, statusAbsent
	}
	for {
		v := t.loadVal(i)
		if v&markedBit != 0 {
			return 0, statusMarked
		}
		if v&liveBit == 0 {
			return 0, statusAbsent
		}
		if t.casVal(i, v, v&^liveBit) {
			return v & valueMask, statusUpdated
		}
		t.recheckKey(i, k)
	}
}

// compareAndDeleteCore tombstones k iff its current value equals want.
// The conditional tombstoning CAS is the linearization point: on
// statusUpdated the removed value was exactly want at the instant of
// removal. statusMismatch reports a live element holding a different
// value (nothing written).
//
//growt:hotpath
func (t *Table) compareAndDeleteCore(k, want uint64) opStatus {
	i, ok := t.locate(k)
	if !ok {
		return statusAbsent
	}
	for {
		v := t.loadVal(i)
		if v&markedBit != 0 {
			return statusMarked
		}
		if v&liveBit == 0 {
			return statusAbsent
		}
		if v&valueMask != want {
			return statusMismatch
		}
		if t.casVal(i, v, v&^liveBit) {
			return statusUpdated
		}
		t.recheckKey(i, k)
	}
}

// rangeCore calls f on every live element; quiescent use only.
func (t *Table) rangeCore(f func(k, v uint64) bool) {
	for i := uint64(0); i < t.capacity; i++ {
		kw := t.loadKey(i)
		if kw == 0 || kw&pendingBit != 0 {
			continue
		}
		v := t.loadVal(i)
		if v&liveBit == 0 {
			continue
		}
		if !f(kw, v&valueMask) {
			return
		}
	}
}

// rangeFromCore resumes rangeCore at slot pos. It returns the slot to
// resume from next and whether the walk reached the end of the cell
// array (in which case the returned position restarts at zero).
// Quiescent use only, like rangeCore.
func (t *Table) rangeFromCore(pos uint64, f func(k, v uint64) bool) (uint64, bool) {
	for i := pos; i < t.capacity; i++ {
		kw := t.loadKey(i)
		if kw == 0 || kw&pendingBit != 0 {
			continue
		}
		v := t.loadVal(i)
		if v&liveBit == 0 {
			continue
		}
		if !f(kw, v&valueMask) {
			if i+1 >= t.capacity {
				return 0, true
			}
			return i + 1, false
		}
	}
	return 0, true
}

// countLive scans the table counting live elements (exact size in absence
// of concurrent modification, §5.2's exact-count extension).
func (t *Table) countLive() uint64 {
	var n uint64
	for i := uint64(0); i < t.capacity; i++ {
		kw := t.loadKey(i)
		if kw == 0 || kw&pendingBit != 0 {
			continue
		}
		if t.loadVal(i)&liveBit != 0 {
			n++
		}
	}
	return n
}
