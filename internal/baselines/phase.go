package baselines

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hashfn"
	"repro/internal/tables"
)

// Phase reimplements the phase-concurrent linear-probing table of Shun
// and Blelloch [34]: operations of only one kind may run concurrently
// (globally synchronized phases, enforced by the caller as in the
// original library). This restriction buys true deletion — holes are
// repaired by Knuth's backward-shift rearrangement instead of tombstones,
// which is why it wins the paper's deletion benchmark (Fig. 6) — and
// tombstone-free probing. The table is bounded, like the original.
//
// Inserts are lock-free CAS claims; finds are plain probes (legal because
// no writer runs in a find phase); deletes coordinate among themselves
// with striped segment locks while they rearrange clusters.
type Phase struct {
	//growt:atomic
	cells []uint64 // interleaved key/value
	segs  []phSeg
	mask  uint64
	shift uint
	size  atomic.Int64
}

type phSeg struct {
	mu sync.Mutex
	_  [56]byte
}

const (
	phSegCells = 4096
	phDelSpan  = 4 // segments locked per deletion before escalating
)

// NewPhase builds a bounded table with capacity ≥ 2·expected.
//
//growt:exclusive -- construction: the table is unpublished
func NewPhase(expected uint64) *Phase {
	capacity := uint64(phSegCells)
	for capacity < 2*expected {
		capacity <<= 1
	}
	shift := uint(64)
	for c := capacity; c > 1; c >>= 1 {
		shift--
	}
	return &Phase{
		cells: make([]uint64, 2*capacity),
		segs:  make([]phSeg, capacity/phSegCells),
		mask:  capacity - 1,
		shift: shift,
	}
}

func (t *Phase) loadKey(i uint64) uint64 { return atomic.LoadUint64(&t.cells[2*i]) }
func (t *Phase) loadVal(i uint64) uint64 { return atomic.LoadUint64(&t.cells[2*i+1]) }
func (t *Phase) storeKey(i, k uint64)    { atomic.StoreUint64(&t.cells[2*i], k) }
func (t *Phase) storeVal(i, v uint64)    { atomic.StoreUint64(&t.cells[2*i+1], v) }
func (t *Phase) casKey(i, o, n uint64) bool {
	return atomic.CompareAndSwapUint64(&t.cells[2*i], o, n)
}
func (t *Phase) casVal(i, o, n uint64) bool {
	return atomic.CompareAndSwapUint64(&t.cells[2*i+1], o, n)
}

func (t *Phase) home(k uint64) uint64 { return hashfn.Hash64(k) >> t.shift }

// Handle returns the table itself.
func (t *Phase) Handle() tables.Handle { return direct(t) }

// ApproxSize returns the exact count.
func (t *Phase) ApproxSize() uint64 {
	n := t.size.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// MemBytes reports backing memory.
func (t *Phase) MemBytes() uint64 { return uint64(len(t.cells)) * 8 }

// Range iterates elements; quiescent use only.
func (t *Phase) Range(f func(k, v uint64) bool) {
	for i := uint64(0); i <= t.mask; i++ {
		if k := t.loadKey(i); k != 0 {
			if !f(k, t.loadVal(i)) {
				return
			}
		}
	}
}

var _ tables.Interface = (*Phase)(nil)
var _ tables.Sizer = (*Phase)(nil)
var _ tables.Ranger = (*Phase)(nil)
var _ tables.MemUser = (*Phase)(nil)

// Insert implements tables.Handle (insert phase).
func (t *Phase) Insert(k, d uint64) bool {
	if k == 0 {
		panic("baselines: key 0 reserved")
	}
	i := t.home(k)
	for probes := uint64(0); probes <= t.mask; probes++ {
		kw := t.loadKey(i)
		if kw == 0 {
			// Claim the key, then publish the value. Within an insert
			// phase no operation reads values, and the phase barrier
			// orders the value store before any find (§ phase concurrency).
			if t.casKey(i, 0, k) {
				t.storeVal(i, d)
				t.size.Add(1)
				return true
			}
			kw = t.loadKey(i)
		}
		if kw == k {
			return false
		}
		i = (i + 1) & t.mask
	}
	panic("baselines: phase-concurrent table full — size it to ≥2n")
}

// Find implements tables.Handle (find phase).
func (t *Phase) Find(k uint64) (uint64, bool) {
	i := t.home(k)
	for probes := uint64(0); probes <= t.mask; probes++ {
		kw := t.loadKey(i)
		if kw == 0 {
			return 0, false
		}
		if kw == k {
			return t.loadVal(i), true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// Update implements tables.Handle (update phase; the original supports
// overwrite-style updates only — Table 1).
func (t *Phase) Update(k, d uint64, up tables.UpdateFn) bool {
	i := t.home(k)
	for probes := uint64(0); probes <= t.mask; probes++ {
		kw := t.loadKey(i)
		if kw == 0 {
			return false
		}
		if kw == k {
			for {
				v := t.loadVal(i)
				if t.casVal(i, v, up(v, d)) {
					return true
				}
			}
		}
		i = (i + 1) & t.mask
	}
	return false
}

// InsertOrUpdate implements tables.Handle (single-kind phase).
func (t *Phase) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	if t.Update(k, d, up) {
		return false
	}
	if t.Insert(k, d) {
		return true
	}
	// Lost an insert race since the update attempt; update now.
	t.Update(k, d, up)
	return false
}

// segsSpan returns sorted distinct segment indices covering
// [start, start+span) cyclically.
func (t *Phase) segsSpan(start, span uint64) []int {
	n := uint64(len(t.segs))
	first := start / phSegCells
	count := (start%phSegCells+span)/phSegCells + 1
	if count > n {
		count = n
	}
	out := make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, int((first+i)%n))
	}
	sort.Ints(out)
	w := 0
	for i, s := range out {
		if i == 0 || s != out[w-1] {
			out[w] = s
			w++
		}
	}
	return out[:w]
}

func (t *Phase) lockSegs(idx []int) {
	for _, i := range idx {
		t.segs[i].mu.Lock()
	}
}

func (t *Phase) unlockSegs(idx []int) {
	for i := len(idx) - 1; i >= 0; i-- {
		t.segs[idx[i]].mu.Unlock()
	}
}

// Delete implements tables.Handle (delete phase): true deletion with
// Knuth's backward-shift repair, coordinated among deleters with striped
// locks; escalates to all segments if a cluster outruns the local span.
func (t *Phase) Delete(k uint64) bool {
	home := t.home(k)
	spanCells := uint64(phDelSpan * phSegCells)
	idx := t.segsSpan(home, spanCells)
	all := len(idx) == len(t.segs)
	t.lockSegs(idx)
	ok, escalate := t.deleteLocked(k, home, spanCells, all)
	t.unlockSegs(idx)
	if !escalate {
		return ok
	}
	// Rare: the cluster extends beyond the locked span. Take every
	// segment (sorted order ⇒ deadlock-free) and run unbounded.
	allIdx := make([]int, len(t.segs))
	for i := range allIdx {
		allIdx[i] = i
	}
	t.lockSegs(allIdx)
	ok, _ = t.deleteLocked(k, home, t.mask+1, true)
	t.unlockSegs(allIdx)
	return ok
}

// deleteLocked performs the deletion under held locks, on cells at most
// spanCells-1 forward of home. It finds k and the empty cell that ends
// its cluster before it moves anything, so a cluster that leaves the span
// escalates with the table untouched. Returns (deleted, needEscalation).
func (t *Phase) deleteLocked(k, home, spanCells uint64, unbounded bool) (bool, bool) {
	hole, end, found := home, home, false
	for off := uint64(0); ; off++ {
		if off == spanCells {
			return false, !unbounded
		}
		kw := t.loadKey(end)
		if kw == 0 {
			break
		}
		if kw == k {
			hole, found = end, true
		}
		end = (end + 1) & t.mask
	}
	if !found {
		return false, false
	}
	// Backward-shift repair (Knuth 6.4 Algorithm R) over (hole, end).
	for j := (hole + 1) & t.mask; j != end; j = (j + 1) & t.mask {
		kj := t.loadKey(j)
		r := t.home(kj)
		movable := false
		if j > hole {
			movable = r <= hole || r > j
		} else {
			movable = r <= hole && r > j
		}
		if movable {
			t.storeVal(hole, t.loadVal(j))
			t.storeKey(hole, kj)
			hole = j
		}
	}
	t.storeKey(hole, 0)
	t.storeVal(hole, 0)
	t.size.Add(-1)
	return true, false
}

func init() {
	tables.Register(tables.Capabilities{
		Name: "phase", Plot: "filled square", StdInterface: "sync phases",
		Growing: "no", AtomicUpdates: "only overwrite", Deletion: true,
		GeneralTypes: false, Reference: "Shun & Blelloch [34] phase-concurrent table",
	}, func(capacity uint64) tables.Interface { return NewPhase(capacity) })
}
