package baselines

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/hashfn"
	"repro/internal/tables"
)

// SplitOrder reimplements Shalev & Shavit's split-ordered lists [33] —
// the lock-free extensible hash table used by the Userspace-RCU library's
// hash map, which the paper benchmarks as "RCU"/"RCU QSBR". All elements
// live in a single lock-free linked list ordered by the bit-reversed
// hash (the split order); buckets are lazily initialized shortcut
// pointers (sentinel nodes) into the list, and growing just doubles the
// published bucket count — elements never move. Where urcu needs
// read-copy-update grace periods to reclaim unlinked nodes, Go's GC
// provides reclamation for free.
//
// The list uses Michael-style marking: a deleted node's next pointer is
// swung to a dedicated marker node wrapping the real successor, which
// makes mark-and-unlink race-free without a pointer-tag CAS.
type SplitOrder struct {
	segs    [soMaxSegs]atomic.Pointer[[]atomic.Pointer[soNode]]
	nBuck   atomic.Uint64
	size    atomic.Int64
	head    *soNode // sentinel for bucket 0
	maxLoad uint64
}

type soNode struct {
	sokey  uint64 // bit-reversed hash, LSB 1 for regular / 0 for sentinel
	key    uint64
	val    atomic.Uint64
	next   atomic.Pointer[soNode]
	isMark bool // marker wrapper: its next is the marked node's successor
}

const (
	soSegBits = 12 // 4096 buckets per segment
	soSegSize = 1 << soSegBits
	soMaxSegs = 1 << 18
)

// NewSplitOrder builds the table; capacity is only a hint for the initial
// bucket count.
func NewSplitOrder(capacity uint64) *SplitOrder {
	t := &SplitOrder{maxLoad: 2}
	t.head = &soNode{sokey: 0}
	seg := make([]atomic.Pointer[soNode], soSegSize)
	seg[0].Store(t.head)
	t.segs[0].Store(&seg)
	n := uint64(2)
	for n < capacity/t.maxLoad {
		n <<= 1
	}
	if n > soSegSize {
		n = soSegSize // further growth happens online
	}
	t.nBuck.Store(n)
	return t
}

// soRegularKey maps a key's hash into split order (LSB set).
func soRegularKey(h uint64) uint64 { return bits.Reverse64(h) | 1 }

// soSentinelKey maps a bucket index into split order (LSB clear).
func soSentinelKey(b uint64) uint64 { return bits.Reverse64(b) &^ 1 }

// bucketPtr returns the slot holding bucket b's sentinel pointer.
func (t *SplitOrder) bucketPtr(b uint64) *atomic.Pointer[soNode] {
	segIdx := b >> soSegBits
	seg := t.segs[segIdx].Load()
	if seg == nil {
		ns := make([]atomic.Pointer[soNode], soSegSize)
		if t.segs[segIdx].CompareAndSwap(nil, &ns) {
			seg = &ns
		} else {
			seg = t.segs[segIdx].Load()
		}
	}
	return &(*seg)[b&(soSegSize-1)]
}

// listFind locates the position for (sokey,key) starting at start: it
// returns (pred, cur) where cur is the first node ≥ (sokey,key), and
// physically unlinks marked nodes on the way (Michael's algorithm).
func (t *SplitOrder) listFind(start *soNode, sokey, key uint64) (pred, cur *soNode) {
retry:
	pred = start
	cur = pred.next.Load()
	for {
		if cur == nil {
			return pred, nil
		}
		succ := cur.next.Load()
		if succ != nil && succ.isMark {
			// cur is deleted: unlink it.
			if !pred.next.CompareAndSwap(cur, succ.next.Load()) {
				goto retry
			}
			cur = succ.next.Load()
			continue
		}
		if cur.sokey > sokey || (cur.sokey == sokey && cur.key >= key) {
			return pred, cur
		}
		pred = cur
		cur = succ
	}
}

// listInsert inserts node after the position found from start; returns
// false if an equal (sokey,key) live node exists (dup holds it).
func (t *SplitOrder) listInsert(start, node *soNode) (*soNode, bool) {
	for {
		pred, cur := t.listFind(start, node.sokey, node.key)
		if cur != nil && cur.sokey == node.sokey && cur.key == node.key {
			return cur, false
		}
		node.next.Store(cur)
		if pred.next.CompareAndSwap(cur, node) {
			return node, true
		}
	}
}

// getBucket returns bucket b's sentinel, initializing it (and its parent
// chain) on first touch — the lazy recursive initialization of [33].
func (t *SplitOrder) getBucket(b uint64) *soNode {
	p := t.bucketPtr(b)
	if s := p.Load(); s != nil {
		return s
	}
	// Initialize parent first: clear b's most significant set bit.
	parent := b &^ (uint64(1) << (63 - uint(bits.LeadingZeros64(b))))
	ps := t.getBucket(parent)
	sent := &soNode{sokey: soSentinelKey(b)}
	got, _ := t.listInsert(ps, sent)
	p.CompareAndSwap(nil, got)
	return p.Load()
}

func (t *SplitOrder) bucketOf(h uint64) *soNode {
	n := t.nBuck.Load()
	return t.getBucket(h & (n - 1))
}

// maybeGrow doubles the bucket count when the load factor is exceeded.
func (t *SplitOrder) maybeGrow() {
	n := t.nBuck.Load()
	if uint64(t.size.Load()) > n*t.maxLoad && n < soMaxSegs*soSegSize/2 {
		t.nBuck.CompareAndSwap(n, 2*n)
	}
}

// Handle returns the table itself.
func (t *SplitOrder) Handle() tables.Handle { return direct(t) }

// ApproxSize returns the exact size.
func (t *SplitOrder) ApproxSize() uint64 {
	n := t.size.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// Range iterates live elements; quiescent use only.
func (t *SplitOrder) Range(f func(k, v uint64) bool) {
	for cur := t.head; cur != nil; cur = cur.next.Load() {
		if cur.isMark {
			continue
		}
		succ := cur.next.Load()
		if succ != nil && succ.isMark {
			continue // deleted
		}
		if cur.sokey&1 == 1 {
			if !f(cur.key, cur.val.Load()) {
				return
			}
		}
	}
}

var _ tables.Interface = (*SplitOrder)(nil)
var _ tables.Sizer = (*SplitOrder)(nil)
var _ tables.Ranger = (*SplitOrder)(nil)

// Insert implements tables.Handle.
func (t *SplitOrder) Insert(k, d uint64) bool {
	h := hashfn.Avalanche(k)
	start := t.bucketOf(h)
	node := &soNode{sokey: soRegularKey(h), key: k}
	node.val.Store(d)
	_, ok := t.listInsert(start, node)
	if ok {
		t.size.Add(1)
		t.maybeGrow()
	}
	return ok
}

// find returns the live node for k, or nil.
func (t *SplitOrder) find(k uint64) *soNode {
	h := hashfn.Avalanche(k)
	start := t.bucketOf(h)
	sokey := soRegularKey(h)
	_, cur := t.listFind(start, sokey, k)
	if cur != nil && cur.sokey == sokey && cur.key == k {
		return cur
	}
	return nil
}

// Find implements tables.Handle.
func (t *SplitOrder) Find(k uint64) (uint64, bool) {
	n := t.find(k)
	if n == nil {
		return 0, false
	}
	return n.val.Load(), true
}

// Update implements tables.Handle.
func (t *SplitOrder) Update(k, d uint64, up tables.UpdateFn) bool {
	n := t.find(k)
	if n == nil {
		return false
	}
	for {
		v := n.val.Load()
		if n.val.CompareAndSwap(v, up(v, d)) {
			return true
		}
	}
}

// InsertOrUpdate implements tables.Handle.
func (t *SplitOrder) InsertOrUpdate(k, d uint64, up tables.UpdateFn) bool {
	h := hashfn.Avalanche(k)
	start := t.bucketOf(h)
	node := &soNode{sokey: soRegularKey(h), key: k}
	node.val.Store(d)
	got, inserted := t.listInsert(start, node)
	if inserted {
		t.size.Add(1)
		t.maybeGrow()
		return true
	}
	for {
		v := got.val.Load()
		if got.val.CompareAndSwap(v, up(v, d)) {
			return false
		}
	}
}

// Delete implements tables.Handle: mark (by swinging next to a marker
// wrapper), then attempt physical unlink.
func (t *SplitOrder) Delete(k uint64) bool {
	h := hashfn.Avalanche(k)
	start := t.bucketOf(h)
	sokey := soRegularKey(h)
	for {
		pred, cur := t.listFind(start, sokey, k)
		if cur == nil || cur.sokey != sokey || cur.key != k {
			return false
		}
		succ := cur.next.Load()
		if succ != nil && succ.isMark {
			continue // already being deleted; re-find (it will unlink)
		}
		marker := &soNode{isMark: true}
		marker.next.Store(succ)
		if !cur.next.CompareAndSwap(succ, marker) {
			continue
		}
		t.size.Add(-1)
		// Best-effort physical unlink; listFind cleans up otherwise.
		pred.next.CompareAndSwap(cur, succ)
		return true
	}
}

func init() {
	tables.Register(tables.Capabilities{
		Name: "splitorder", Plot: "x marker", StdInterface: "direct (GC replaces RCU)",
		Growing: "lock-free (buckets only)", AtomicUpdates: "CAS on node", Deletion: true,
		GeneralTypes: true, Reference: "Shalev & Shavit [33] via urcu's hash map",
	}, func(capacity uint64) tables.Interface { return NewSplitOrder(capacity) })
}
