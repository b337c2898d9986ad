package baselines

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hashfn"
	"repro/internal/tables"
)

// JunctionLinear reimplements the architecture class of junction's
// Linear map [31]: open addressing over word-sized cells, wait-free
// reads on an atomically published table, and growth by migrating into a
// freshly allocated bigger table. Junction coordinates its migration with
// QSBR; Go's GC replaces the reclamation half, and the
// migration itself is protected by a writer lock (writers stall during a
// migration — the growth stalls visible for junction in Fig. 2b).
// Deletion stores a value tombstone, reclaimed at the next migration.
type JunctionLinear struct {
	cur      atomic.Pointer[jlTable]
	writers  sync.RWMutex // writers share; migration excludes writers
	size     atomic.Int64
	migating atomic.Bool
}

type jlTable struct {
	//growt:atomic
	cells []uint64
	mask  uint64
	shift uint
	used  atomic.Int64 // claimed cells (incl. tombstones)
}

const (
	jlTombVal = ^uint64(0)
	jlPending = ^uint64(0) // in-flight key marker
)

//growt:exclusive -- construction: the table is unpublished
func newJLTable(capacity uint64) *jlTable {
	c := uint64(64)
	for c < capacity {
		c <<= 1
	}
	shift := uint(64)
	for x := c; x > 1; x >>= 1 {
		shift--
	}
	return &jlTable{cells: make([]uint64, 2*c), mask: c - 1, shift: shift}
}

// NewJunctionLinear builds the table with an initial capacity.
func NewJunctionLinear(capacity uint64) *JunctionLinear {
	t := &JunctionLinear{}
	t.cur.Store(newJLTable(2 * capacity))
	return t
}

func (s *jlTable) loadKey(i uint64) uint64 { return atomic.LoadUint64(&s.cells[2*i]) }
func (s *jlTable) loadVal(i uint64) uint64 { return atomic.LoadUint64(&s.cells[2*i+1]) }
func (s *jlTable) casKey(i, o, n uint64) bool {
	return atomic.CompareAndSwapUint64(&s.cells[2*i], o, n)
}
func (s *jlTable) casVal(i, o, n uint64) bool {
	return atomic.CompareAndSwapUint64(&s.cells[2*i+1], o, n)
}
func (s *jlTable) storeVal(i, v uint64)  { atomic.StoreUint64(&s.cells[2*i+1], v) }
func (s *jlTable) storeKey(i, kw uint64) { atomic.StoreUint64(&s.cells[2*i], kw) }

// locate probes for k; returns (cell, found).
func (s *jlTable) locate(k uint64) (uint64, bool) {
	i := hashfn.Hash64(k) >> s.shift
	for probes := uint64(0); probes <= s.mask; probes++ {
		kw := s.loadKey(i)
		if kw == 0 {
			return 0, false
		}
		for spins := 0; kw == jlPending; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
			kw = s.loadKey(i)
		}
		if kw == k {
			return i, true
		}
		i = (i + 1) & s.mask
	}
	return 0, false
}

// Handle returns the table itself.
func (t *JunctionLinear) Handle() tables.Handle { return direct(t) }

// ApproxSize returns the exact size.
func (t *JunctionLinear) ApproxSize() uint64 {
	n := t.size.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// MemBytes reports the current table's backing memory.
func (t *JunctionLinear) MemBytes() uint64 { return uint64(len(t.cur.Load().cells)) * 8 }

// Range iterates elements; quiescent use only.
func (t *JunctionLinear) Range(f func(k, v uint64) bool) {
	s := t.cur.Load()
	for i := uint64(0); i <= s.mask; i++ {
		kw := s.loadKey(i)
		if kw == 0 || kw == jlPending {
			continue
		}
		v := s.loadVal(i)
		if v == jlTombVal {
			continue
		}
		if !f(kw, v) {
			return
		}
	}
}

var _ tables.Interface = (*JunctionLinear)(nil)
var _ tables.Sizer = (*JunctionLinear)(nil)
var _ tables.Ranger = (*JunctionLinear)(nil)
var _ tables.MemUser = (*JunctionLinear)(nil)

// migrate moves everything into a table sized for the live count ×4,
// excluding all writers for the duration (junction's growth stall).
func (t *JunctionLinear) migrate(saw *jlTable) {
	t.writers.Lock()
	defer t.writers.Unlock()
	src := t.cur.Load()
	if src != saw {
		return // somebody else migrated while we waited
	}
	live := uint64(t.size.Load())
	dst := newJLTable(4*live + 64)
	for i := uint64(0); i <= src.mask; i++ {
		kw := src.loadKey(i)
		if kw == 0 || kw == jlPending {
			continue
		}
		v := src.loadVal(i)
		if v == jlTombVal {
			continue
		}
		j := hashfn.Hash64(kw) >> dst.shift
		for dst.loadKey(j) != 0 {
			j = (j + 1) & dst.mask
		}
		dst.storeKey(j, kw)
		dst.storeVal(j, v)
		dst.used.Add(1)
	}
	t.cur.Store(dst)
}

// Insert implements tables.Handle.
func (t *JunctionLinear) Insert(k, d uint64) bool {
	if k == 0 || k == jlPending {
		panic("baselines: key outside junction-like domain")
	}
	if d == jlTombVal {
		panic("baselines: value outside junction-like domain")
	}
	for {
		t.writers.RLock()
		s := t.cur.Load()
		if uint64(s.used.Load())*4 >= (s.mask+1)*3 {
			t.writers.RUnlock()
			t.migrate(s)
			continue
		}
		i := hashfn.Hash64(k) >> s.shift
		res := -1 // -1 keep probing; 0 inserted; 1 duplicate
		for probes := uint64(0); probes <= s.mask; probes++ {
			kw := s.loadKey(i)
			if kw == 0 {
				if s.casKey(i, 0, jlPending) {
					s.storeVal(i, d)
					s.storeKey(i, k)
					s.used.Add(1)
					res = 0
					break
				}
				kw = s.loadKey(i)
			}
			for spins := 0; kw == jlPending; spins++ {
				if spins > 64 {
					runtime.Gosched()
				}
				kw = s.loadKey(i)
			}
			if kw == k {
				// Revive a tombstone or report duplicate.
				v := s.loadVal(i)
				if v == jlTombVal && s.casVal(i, jlTombVal, d) {
					res = 0
					break
				}
				res = 1
				break
			}
			i = (i + 1) & s.mask
		}
		t.writers.RUnlock()
		switch res {
		case 0:
			t.size.Add(1)
			return true
		case 1:
			return false
		default:
			t.migrate(s) // probed the whole table: force growth
		}
	}
}

// Update implements tables.Handle.
func (t *JunctionLinear) Update(k, d uint64, up tables.UpdateFn) bool {
	t.writers.RLock()
	defer t.writers.RUnlock()
	s := t.cur.Load()
	i, ok := s.locate(k)
	if !ok {
		return false
	}
	for {
		v := s.loadVal(i)
		if v == jlTombVal {
			return false
		}
		if s.casVal(i, v, up(v, d)) {
			return true
		}
	}
}

// InsertOrUpdate implements tables.Handle.
func (t *JunctionLinear) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	for {
		if t.Update(k, d, up) {
			return false
		}
		if t.Insert(k, d) {
			return true
		}
	}
}

// Find implements tables.Handle: wait-free on the published table.
func (t *JunctionLinear) Find(k uint64) (uint64, bool) {
	s := t.cur.Load()
	i, ok := s.locate(k)
	if !ok {
		return 0, false
	}
	v := s.loadVal(i)
	if v == jlTombVal {
		return 0, false
	}
	return v, true
}

// Delete implements tables.Handle: value tombstone, reclaimed at the
// next migration.
func (t *JunctionLinear) Delete(k uint64) bool {
	t.writers.RLock()
	defer t.writers.RUnlock()
	s := t.cur.Load()
	i, ok := s.locate(k)
	if !ok {
		return false
	}
	for {
		v := s.loadVal(i)
		if v == jlTombVal {
			return false
		}
		if s.casVal(i, v, jlTombVal) {
			t.size.Add(-1)
			return true
		}
	}
}

func init() {
	tables.Register(tables.Capabilities{
		Name: "junctionlinear", Plot: "qsbr diamond", StdInterface: "direct (GC replaces QSBR)",
		Growing: "yes (stop-the-world)", AtomicUpdates: "only overwrite in original", Deletion: true,
		GeneralTypes: false, Reference: "Preshing's junction Linear [31], architecture class",
	}, func(capacity uint64) tables.Interface { return NewJunctionLinear(capacity) })
}
