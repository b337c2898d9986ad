// Package stringmap implements the complex-key generalization outlined in
// §5.7 of the paper (the authors describe the design but leave the
// implementation as future work, §9): a concurrent linear-probing map
// from strings to 62-bit values where
//
//   - the table itself manages storage for keys: string bytes are copied
//     into append-only arena pages allocated per handle (the paper's
//     per-thread string pages);
//   - a cell's key word packs a 16-bit signature of the master hash next
//     to the 47-bit arena reference, so probing compares signatures first
//     and dereferences the arena only on signature match — restoring most
//     of linear probing's cache friendliness;
//   - the value word reuses the live/tombstone protocol of the core
//     table, so updates and deletions are single-word CAS operations.
//
// The table is bounded (sized at construction) like the paper's folklore
// base; deleted keys' arena space is reclaimed only wholesale via Reset,
// matching the paper's observation that string space is best garbage
// collected during migration/cleanup phases.
package stringmap

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hashfn"
)

const (
	pendingBit = uint64(1) << 63
	sigShift   = 47
	sigMask    = uint64(1<<16-1) << sigShift
	refMask    = uint64(1)<<sigShift - 1

	markedBit = uint64(1) << 63
	liveBit   = uint64(1) << 62
	valueMask = liveBit - 1

	// MaxValue is the largest storable value.
	MaxValue = valueMask

	pageSize   = 1 << 16 // 64 KiB arena pages
	maxPages   = 1 << 31
	maxStrLen  = pageSize - 2
	lenHdrSize = 2
)

// arena is the shared page registry. Pages are immutable once filled;
// only the owning handle appends to its current page.
type arena struct {
	mu    sync.Mutex
	pages [][]byte
}

// newPage registers a fresh page and returns its index.
func (a *arena) newPage() uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pages) >= maxPages {
		panic("stringmap: arena page space exhausted")
	}
	a.pages = append(a.pages, make([]byte, 0, pageSize))
	return uint32(len(a.pages) - 1)
}

// get returns the string stored at ref. The bytes are immutable, so the
// unsafe-free copy to string happens once at read.
func (a *arena) get(ref uint64) string {
	page := uint32(ref >> 16)
	off := uint32(ref & 0xFFFF)
	a.mu.Lock()
	p := a.pages[page]
	a.mu.Unlock()
	n := uint32(p[off]) | uint32(p[off+1])<<8
	return string(p[off+lenHdrSize : off+lenHdrSize+n])
}

// Map is a bounded concurrent string-keyed hash map.
type Map struct {
	//growt:atomic
	cells    []uint64 // interleaved key/value words
	capacity uint64
	shift    uint
	ar       arena
	size     atomic.Int64
}

// New builds a map with capacity ≥ 2·expected (the paper's sizing rule).
//
//growt:exclusive -- construction: the map is unpublished
func New(expected uint64) *Map {
	capacity := 2 * expected
	if capacity < 8 {
		capacity = 8
	}
	logCap := uint(bits.Len64(capacity - 1))
	capacity = uint64(1) << logCap
	return &Map{
		cells:    make([]uint64, 2*capacity),
		capacity: capacity,
		shift:    64 - logCap,
	}
}

// Capacity returns the cell count.
func (m *Map) Capacity() uint64 { return m.capacity }

// Size returns the exact live element count (maintained with a shared
// atomic counter; contrast with §5.2's approximate scheme — string maps
// are not the contention hot path the paper optimizes, so exactness wins).
func (m *Map) Size() uint64 {
	n := m.size.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

func (m *Map) loadKey(i uint64) uint64 { return atomic.LoadUint64(&m.cells[2*i]) }
func (m *Map) loadVal(i uint64) uint64 { return atomic.LoadUint64(&m.cells[2*i+1]) }
func (m *Map) casKey(i, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&m.cells[2*i], old, new)
}
func (m *Map) casVal(i, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&m.cells[2*i+1], old, new)
}
func (m *Map) storeKey(i, k uint64) { atomic.StoreUint64(&m.cells[2*i], k) }
func (m *Map) storeVal(i, v uint64) { atomic.StoreUint64(&m.cells[2*i+1], v) }

func (m *Map) waitKey(i uint64) uint64 {
	for spins := 0; ; spins++ {
		kw := m.loadKey(i)
		if kw&pendingBit == 0 {
			return kw
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// sigOf extracts the signature bits from the master hash: the index uses
// the top bits, the signature the least significant ones ("bits that were
// not used for finding the position", §5.7).
func sigOf(h uint64) uint64 { return (h & 0xFFFF) << sigShift }

// Handle is a goroutine-private accessor owning an arena page.
type Handle struct {
	m       *Map
	page    uint32
	pageOff uint32
	havePg  bool
}

// Handle returns a new accessor (§5.1 handles).
func (m *Map) Handle() *Handle { return &Handle{m: m} }

// alloc copies s into the handle's current page, returning the 47-bit
// arena reference. Strings longer than a page get a dedicated page, like
// the paper's "long strings use the general purpose allocator".
func (h *Handle) alloc(s string) uint64 {
	if len(s) > maxStrLen {
		panic(fmt.Sprintf("stringmap: key longer than %d bytes", maxStrLen))
	}
	need := uint32(len(s) + lenHdrSize)
	if !h.havePg || h.pageOff+need > pageSize {
		h.page = h.m.ar.newPage()
		h.pageOff = 0
		h.havePg = true
	}
	h.m.ar.mu.Lock()
	p := h.m.ar.pages[h.page]
	off := h.pageOff
	p = p[:off+need]
	p[off] = byte(len(s))
	p[off+1] = byte(len(s) >> 8)
	copy(p[off+lenHdrSize:], s)
	h.m.ar.pages[h.page] = p
	h.m.ar.mu.Unlock()
	h.pageOff += need
	return uint64(h.page)<<16 | uint64(off)
}

// Insert stores ⟨s,v⟩ if absent; returns true iff this call inserted.
func (h *Handle) Insert(s string, v uint64) bool {
	ok, _ := h.upsert(s, v, nil)
	return ok
}

// InsertOrUpdate inserts ⟨s,v⟩ or updates with up; true iff inserted.
func (h *Handle) InsertOrUpdate(s string, v uint64, up func(cur, d uint64) uint64) bool {
	ok, _ := h.upsert(s, v, up)
	return ok
}

// upsert implements both: with up==nil a duplicate refuses (insert
// semantics), otherwise it updates.
func (h *Handle) upsert(s string, v uint64, up func(cur, d uint64) uint64) (inserted, updated bool) {
	if v > MaxValue {
		panic("stringmap: value exceeds 62 bits")
	}
	hash := hashfn.HashString(s)
	sig := sigOf(hash)
	mask := h.m.capacity - 1
	i := hash >> h.m.shift
	ref := uint64(0)
	haveRef := false
	for probes := uint64(0); probes <= h.m.capacity; probes++ {
		kw := h.m.loadKey(i)
		if kw == 0 {
			if !haveRef {
				ref = h.alloc(s)
				haveRef = true
			}
			if h.m.casKey(i, 0, ref|sig|pendingBit) {
				h.m.storeVal(i, v|liveBit)
				h.m.storeKey(i, ref|sig)
				h.m.size.Add(1)
				return true, false
			}
			kw = h.m.loadKey(i)
		}
		if kw&sigMask == sig {
			if kw&pendingBit != 0 {
				kw = h.m.waitKey(i)
			}
			if h.m.ar.get(kw&refMask) == s {
				for {
					cur := h.m.loadVal(i)
					if cur&liveBit == 0 {
						// Tombstone owned by s: revive.
						if h.m.casVal(i, cur, v|liveBit) {
							h.m.size.Add(1)
							return true, false
						}
						continue
					}
					if up == nil {
						return false, false
					}
					nv := up(cur&valueMask, v)&valueMask | liveBit
					if h.m.casVal(i, cur, nv) {
						return false, true
					}
				}
			}
		}
		i = (i + 1) & mask
	}
	panic("stringmap: table full — size it to ≥2n")
}

// Find returns the value stored at s.
func (h *Handle) Find(s string) (uint64, bool) {
	hash := hashfn.HashString(s)
	sig := sigOf(hash)
	mask := h.m.capacity - 1
	i := hash >> h.m.shift
	for probes := uint64(0); probes <= h.m.capacity; probes++ {
		kw := h.m.loadKey(i)
		if kw == 0 {
			return 0, false
		}
		if kw&sigMask == sig && kw&pendingBit == 0 {
			if h.m.ar.get(kw&refMask) == s {
				v := h.m.loadVal(i)
				if v&liveBit == 0 {
					return 0, false
				}
				return v & valueMask, true
			}
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Update applies up to the element at s; false if absent.
func (h *Handle) Update(s string, d uint64, up func(cur, d uint64) uint64) bool {
	hash := hashfn.HashString(s)
	sig := sigOf(hash)
	mask := h.m.capacity - 1
	i := hash >> h.m.shift
	for probes := uint64(0); probes <= h.m.capacity; probes++ {
		kw := h.m.loadKey(i)
		if kw == 0 {
			return false
		}
		if kw&sigMask == sig && kw&pendingBit == 0 && h.m.ar.get(kw&refMask) == s {
			for {
				cur := h.m.loadVal(i)
				if cur&liveBit == 0 {
					return false
				}
				if h.m.casVal(i, cur, up(cur&valueMask, d)&valueMask|liveBit) {
					return true
				}
			}
		}
		i = (i + 1) & mask
	}
	return false
}

// Delete tombstones s; the arena bytes stay until Reset (the paper defers
// key-space reclamation to migration phases).
func (h *Handle) Delete(s string) bool {
	hash := hashfn.HashString(s)
	sig := sigOf(hash)
	mask := h.m.capacity - 1
	i := hash >> h.m.shift
	for probes := uint64(0); probes <= h.m.capacity; probes++ {
		kw := h.m.loadKey(i)
		if kw == 0 {
			return false
		}
		if kw&sigMask == sig && kw&pendingBit == 0 && h.m.ar.get(kw&refMask) == s {
			for {
				cur := h.m.loadVal(i)
				if cur&liveBit == 0 {
					return false
				}
				if h.m.casVal(i, cur, cur&^liveBit) {
					h.m.size.Add(-1)
					return true
				}
			}
		}
		i = (i + 1) & mask
	}
	return false
}

// Range calls f on every live element; quiescent use only.
func (m *Map) Range(f func(s string, v uint64) bool) {
	for i := uint64(0); i < m.capacity; i++ {
		kw := m.loadKey(i)
		if kw == 0 || kw&pendingBit != 0 {
			continue
		}
		v := m.loadVal(i)
		if v&liveBit == 0 {
			continue
		}
		if !f(m.ar.get(kw&refMask), v&valueMask) {
			return
		}
	}
}
