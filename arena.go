package growt

import (
	"sync"
	"sync/atomic"
)

// arena is the paged store behind both indirections of the typed facade:
// the generic route's chain entries (typed.go) and the word route's
// escaped 64-bit values (codec.go). A slot is named by a 1-based
// reference (0 = none) reserved with an atomic bump, so allocators meet
// only on the mutex that builds a new page. Pages never move and slots
// are never handed out twice, so a slot's address and meaning are stable.
//
// A user that knows when a slot is no longer referenced gives it back
// with release; a page whose every slot is back is retired: its directory
// entry is cleared and the collector takes it once the last pointer into
// it is gone. The directory is one slice of page pointers that doubles
// when it runs out and drops its retired prefix while doing so: amortised
// O(1) per page, sized by the span of pages in use, not by pages ever made.
const arenaPageSize = 256

// The count sits beside the slot array so that array keeps its size class.
type arenaPage[T any] struct {
	slots    *[arenaPageSize]T
	released atomic.Uint32 // slots given back; the page retires at arenaPageSize
}

// arenaDir is one directory snapshot: pages[i] holds page base+i, nil if
// retired or not built yet. Pages before base are all retired.
type arenaDir[T any] struct {
	base  uint64
	pages []atomic.Pointer[arenaPage[T]]
}

type arena[T any] struct {
	n    atomic.Uint64 // slots reserved so far
	dir  atomic.Pointer[arenaDir[T]]
	mu   sync.Mutex // directory growth, page building and retirement
	made uint64     // pages built so far; guarded by mu
}

func newArena[T any]() *arena[T] {
	a := &arena[T]{}
	a.dir.Store(&arenaDir[T]{})
	return a
}

// page returns page number pg, nil if it is retired or not built yet.
func (a *arena[T]) page(pg uint64) *arenaPage[T] {
	d := a.dir.Load()
	if i := pg - d.base; i < uint64(len(d.pages)) {
		return d.pages[i].Load()
	}
	return nil
}

// alloc reserves a fresh zeroed slot. The caller fills it and must then
// publish the reference through an atomic (a word cell, a chain link) for
// other goroutines to read the slot.
func (a *arena[T]) alloc() (ref uint64, slot *T) {
	idx := a.n.Add(1) - 1
	for {
		if p := a.page(idx / arenaPageSize); p != nil {
			return idx + 1, &p.slots[idx%arenaPageSize]
		}
		a.build(idx / arenaPageSize)
	}
}

// put stores v in a fresh slot and returns its reference.
func (a *arena[T]) put(v T) uint64 {
	ref, slot := a.alloc()
	*slot = v
	return ref
}

// build makes every page up to pg, growing the directory to hold them.
func (a *arena[T]) build(pg uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.dir.Load()
	if pg-d.base >= uint64(len(d.pages)) {
		keep, base := d.pages, d.base
		for base < a.made && keep[0].Load() == nil {
			keep, base = keep[1:], base+1
		}
		size := max(2*len(keep), int(pg-base)+1, 16)
		nd := &arenaDir[T]{base: base, pages: make([]atomic.Pointer[arenaPage[T]], size)}
		for i := range keep {
			nd.pages[i].Store(keep[i].Load())
		}
		a.dir.Store(nd)
		d = nd
	}
	for ; a.made <= pg; a.made++ {
		d.pages[a.made-d.base].Store(&arenaPage[T]{slots: new([arenaPageSize]T)})
	}
}

// get returns the slot ref names, nil if its page is retired.
func (a *arena[T]) get(ref uint64) *T {
	if p := a.page((ref - 1) / arenaPageSize); p != nil {
		return &p.slots[(ref-1)%arenaPageSize]
	}
	return nil
}

// release gives slot ref back; the caller vouches that no reference to it
// is reachable any more and that it does so once per slot. It reports
// whether that retired the slot's page.
func (a *arena[T]) release(ref uint64) bool {
	pg := (ref - 1) / arenaPageSize
	if a.page(pg).released.Add(1) < arenaPageSize {
		return false
	}
	a.mu.Lock()
	d := a.dir.Load()
	d.pages[pg-d.base].Store(nil)
	a.mu.Unlock()
	return true
}

// floor is the lowest slot index (0-based) whose page may still be live.
func (a *arena[T]) floor() uint64 { return a.dir.Load().base * arenaPageSize }
