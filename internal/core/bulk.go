package core

import (
	"sort"
	"sync"

	"repro/internal/hashfn"
)

// This file implements the bulk operations of §5.5: building a table from
// n elements in O(n/p) time by integer-sorting the batch by hash value,
// which sidesteps contention entirely — duplicate keys collapse during
// the sorted pass instead of fighting over cells (cf. Müller et al. [25],
// "hashing is sorting").

// KV is one element of a bulk batch.
type KV struct {
	Key uint64
	Val uint64
}

// BuildFolklore constructs a bounded folklore table holding elems using p
// parallel builders. Duplicate keys keep their first occurrence (insert
// semantics; §5.5's batch semantics would keep the last — flip the
// comparison below to get it). The returned table is fully constructed
// and ready for concurrent use.
func BuildFolklore(elems []KV, p int) *Folklore {
	f := NewFolklore(uint64(len(elems)) + 1)
	bulkFill(f.t, elems, p)
	f.t.c.ins.Store(f.t.countLive())
	return f
}

// BuildGrow constructs a growing table from the batch (same placement,
// grow wrapper on top).
func BuildGrow(strategy Strategy, elems []KV, p int) *Grow {
	g := NewGrow(strategy, 2*uint64(len(elems))+16)
	t := g.cur.Load()
	bulkFill(t, elems, p)
	t.c.ins.Store(t.countLive())
	return g
}

// bulkFill implements the sorted parallel placement on a fresh, private
// table t (no concurrent operations yet — this is construction).
func bulkFill(t *Table, elems []KV, p int) {
	if p < 1 {
		p = 1
	}
	n := len(elems)
	if n == 0 {
		return
	}
	// Sort a copy of the batch by hash (ascending) — elements then map to
	// monotonically nondecreasing home cells, so contiguous batch slices
	// fill disjoint table regions.
	type hkv struct {
		h   uint64
		e   KV
		idx int // original batch position: ties keep the first occurrence
	}
	sorted := make([]hkv, n)
	for i, e := range elems {
		checkKey(e.Key)
		checkValue(e.Val)
		sorted[i] = hkv{hashfn.Hash64(e.Key), e, i}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].h != sorted[j].h {
			return sorted[i].h < sorted[j].h
		}
		if sorted[i].e.Key != sorted[j].e.Key {
			return sorted[i].e.Key < sorted[j].e.Key
		}
		return sorted[i].idx < sorted[j].idx
	})
	// Drop duplicates (first occurrence wins; ties in hash with distinct
	// keys survive).
	w := 0
	for i := range sorted {
		if i > 0 && sorted[i].e.Key == sorted[w-1].e.Key && sorted[i].h == sorted[w-1].h {
			continue
		}
		sorted[w] = sorted[i]
		w++
	}
	sorted = sorted[:w]

	// Partition the table into p cell ranges and the batch at the
	// matching hash boundaries; each worker fills its range sequentially
	// (first free cell at or after home). Elements whose probe chain
	// would spill past the range boundary are deferred to a sequential
	// phase 2, mirroring the shrink migration's two-phase scheme.
	var spillMu sync.Mutex
	var spill []KV
	var wg sync.WaitGroup
	for worker := 0; worker < p; worker++ {
		cellLo := t.capacity * uint64(worker) / uint64(p)
		cellHi := t.capacity * uint64(worker+1) / uint64(p)
		lo := sort.Search(len(sorted), func(i int) bool { return t.index(sorted[i].h) >= cellLo })
		hi := sort.Search(len(sorted), func(i int) bool { return t.index(sorted[i].h) >= cellHi })
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(part []hkv, cellHi uint64) {
			defer wg.Done()
			var local []KV
			for _, x := range part {
				pos := t.index(x.h)
				for pos < cellHi && t.loadKey(pos) != 0 {
					pos++
				}
				if pos >= cellHi {
					local = append(local, x.e)
					continue
				}
				// Exclusion proof: t is private to this bulkFill call (the
				// Build* constructors hand it a freshly allocated table with
				// no published handles and no migration object), and worker
				// cell ranges [cellLo, cellHi) are disjoint, so no other
				// writer — in particular no marking migrator — can touch
				// this value word. The CAS (instead of the former plain
				// store) enforces that proof at runtime: if the exclusion is
				// ever broken, a concurrently set markedBit makes the CAS
				// fail loudly here instead of being silently overwritten,
				// which would detach the cell from the migration protocol
				// and lose the element (the lost-op bug family).
				if !t.casVal(pos, 0, x.e.Val|liveBit) {
					panic("core: bulkFill value CAS failed — builder tables must be private until construction completes")
				}
				t.storeKey(pos, x.e.Key)
			}
			if len(local) > 0 {
				spillMu.Lock()
				spill = append(spill, local...)
				spillMu.Unlock()
			}
		}(sorted[lo:hi], cellHi)
	}
	wg.Wait()
	for _, e := range spill {
		t.insertCore(e.Key, e.Val)
	}
}

// ForAll applies f to every live element in parallel over p goroutines,
// splitting the table between them (§4 "Bulk Operations": forall is
// embarrassingly parallel). Quiescent use only.
func (f *Folklore) ForAll(p int, fn func(k, v uint64)) { forAll(f.t, p, fn) }

// ForAll applies f to every live element in parallel; quiescent use only.
func (g *Grow) ForAll(p int, fn func(k, v uint64)) { forAll(g.cur.Load(), p, fn) }

func forAll(t *Table, p int, fn func(k, v uint64)) {
	if p < 1 {
		p = 1
	}
	var wg sync.WaitGroup
	for worker := 0; worker < p; worker++ {
		lo := t.capacity * uint64(worker) / uint64(p)
		hi := t.capacity * uint64(worker+1) / uint64(p)
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				kw := t.loadKey(i)
				if kw == 0 || kw&pendingBit != 0 || kw == frozenKey {
					continue
				}
				v := t.loadVal(i)
				if v&liveBit == 0 {
					continue
				}
				fn(kw, v&valueMask)
			}
		}(lo, hi)
	}
	wg.Wait()
}
