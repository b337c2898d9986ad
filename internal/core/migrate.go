package core

import (
	"sync"

	"repro/internal/hashfn"
	"repro/internal/obs/trace"
	"repro/internal/pad"
)

// migBlockCells is the migration work grain: blocks of 4096 cells are
// dealt to migrating threads with a single fetch-and-add (§7).
const migBlockCells = 4096

// frozenKey is the reserved key pattern a migrator CASes into an *empty*
// cell's key word so that no insert can claim it after the cell has been
// examined. A frozen cell is permanently empty for migration purposes but
// is treated as occupied-by-a-foreign-key by probe loops, so probing
// simply walks over it. This is the split-word equivalent of the paper's
// marking of empty cells (§5.3.2): with 128-bit CAS one mark freezes both
// words at once, here the key word of empty cells needs its own freeze.
const frozenKey = keyMask // all 63 key bits set; user keys are < frozenKey

type kv struct{ k, v uint64 }

// migration coordinates moving all elements of src into dst. One
// migration object exists per growing/cleanup/shrink step; threads join
// via help (block dealing) or wait on finished.
type migration struct {
	src, dst *Table
	// marking selects the asynchronous consistency protocol (§5.3.2
	// "Marking Moved Elements"): every cell is marked before it is copied
	// so no late write can be lost. The synchronized variants (usGrow,
	// psGrow) pass false: writers are excluded, no marking needed.
	marking bool

	nextBlock   pad.Uint64 // block dealer (fetch-and-add)
	doneBlocks  pad.Uint64
	totalBlocks uint64
	moved       pad.Uint64 // live elements placed into dst

	// started gates helpers: closed immediately for asynchronous
	// migrations, closed after the busy-flag drain for synchronized ones.
	started  chan struct{}
	finished chan struct{}

	// onDone publishes dst (flips the table pointer, resets counters).
	// Called exactly once, by the thread completing the last block.
	onDone func(moved uint64)

	// shrink phase 2: elements that did not fit their target block are
	// re-inserted by the finalizer after the block barrier (§5.3.1
	// Shrinking).
	leftMu   sync.Mutex
	leftover []kv
}

func newMigration(src, dst *Table, marking bool, onDone func(moved uint64)) *migration {
	// The caller closes started: immediately for marking (asynchronous)
	// migrations, after the busy-flag drain for synchronized ones.
	return &migration{
		src:         src,
		dst:         dst,
		marking:     marking,
		totalBlocks: (src.capacity + migBlockCells - 1) / migBlockCells,
		started:     make(chan struct{}),
		finished:    make(chan struct{}),
		onDone:      onDone,
	}
}

// grows reports whether this migration grows or keeps the capacity
// (cluster algorithm) as opposed to shrinking (two-phase algorithm).
func (m *migration) grows() bool { return m.dst.capacity >= m.src.capacity }

// help joins the migration: deal blocks until exhausted, then wait for
// completion. Returns after dst has been published.
func (m *migration) help() {
	<-m.started
	trace.Emit(trace.KindMigAdopt, m.totalBlocks, m.doneBlocks.Load(), 0)
	for {
		b := m.nextBlock.Add(1) - 1
		if b >= m.totalBlocks {
			break
		}
		var moved uint64
		if m.grows() {
			moved = m.processGrowBlock(b)
		} else {
			moved = m.processShrinkBlock(b)
		}
		trace.Emit(trace.KindMigCopySlice, b, moved, 0)
		if moved > 0 {
			m.moved.Add(moved)
		}
		if m.doneBlocks.Add(1) == m.totalBlocks {
			m.finalize()
		}
	}
	<-m.finished
}

// wait blocks until the migration has been published (used by application
// threads in the pool variants, §5.3.2 "Using a Dedicated Thread Pool").
func (m *migration) wait() { <-m.finished }

// abort cancels an armed migration that must not run because its source is
// a retired generation (Grow.arm detected the stale-src race after winning
// the slot CAS). Threads that already adopted the migration through the
// published pointer are released: presetting the block dealer past the end
// makes help() fall through without dealing a block, so finalize/onDone
// never run and the current-table pointer is untouched. The caller must
// release the migration slot before calling abort. Must be called at most
// once, before started is closed.
func (m *migration) abort() {
	m.nextBlock.Store(m.totalBlocks) // no block will ever be dealt
	trace.Emit(trace.KindMigAbort, m.src.capacity, 0, 0)
	close(m.started)
	close(m.finished)
}

// finalize runs after the block barrier: shrink leftovers are inserted
// (phase 2), counters initialized, the table pointer flipped.
func (m *migration) finalize() {
	if m.grows() && m.moved.Load() == 0 {
		// Degenerate case: a 100% full table has no empty cell, hence no
		// cluster start, and the block scan copies nothing (this can only
		// happen when inserts outran the fill trigger on a tiny table).
		// Any live element would have been inside a started cluster, so
		// moved==0 proves no cluster start existed; re-copy serially.
		m.fallbackFullCopy()
	}
	if len(m.leftover) > 0 {
		// Exclusive access: every other helper is past the block loop.
		for _, e := range m.leftover {
			if m.dst.insertCore(e.k, e.v) == statusInserted {
				m.moved.Add(1)
			}
		}
	}
	m.onDone(m.moved.Load())
	close(m.finished)
}

// fallbackFullCopy reinserts every live element sequentially (first free
// cell at or after its home, the plain linear-probing insertion rule,
// which maintains the probe invariant for any insertion order). Runs
// exclusively in the finalizer, after the block barrier.
func (m *migration) fallbackFullCopy() {
	src := m.src
	for i := uint64(0); i < src.capacity; i++ {
		k, v, empty := m.stabilize(i)
		if empty || v&liveBit == 0 {
			continue
		}
		if m.dst.insertCore(k, v&valueMask) == statusInserted {
			m.moved.Add(1)
		}
	}
}

// stabilize pins down the final pre-migration state of source cell i and
// returns it. In marking mode it (idempotently) marks the value word,
// freezes empty key words, and waits out in-flight inserts, after which
// the cell can never change again. Multiple threads may stabilize the
// same cell; they all observe the same final state.
func (m *migration) stabilize(i uint64) (key, val uint64, empty bool) {
	src := m.src
	if m.marking {
		for {
			v := src.loadVal(i)
			if v&markedBit != 0 {
				break
			}
			if src.casVal(i, v, v|markedBit) {
				break
			}
		}
		kw := src.loadKey(i)
		if kw == 0 {
			if src.casKey(i, 0, frozenKey) {
				return 0, 0, true
			}
			kw = src.loadKey(i)
		}
		if kw&pendingBit != 0 {
			kw = src.waitKey(i)
		}
		if kw == frozenKey {
			return 0, 0, true
		}
		return kw, src.loadVal(i), false
	}
	// Synchronized mode: writers are excluded, plain stable reads.
	kw := src.loadKey(i)
	if kw == 0 || kw == frozenKey {
		return 0, 0, true
	}
	if kw&pendingBit != 0 {
		kw = src.waitKey(i)
	}
	return kw, src.loadVal(i), false
}

// processGrowBlock migrates the clusters *starting* in block b (Lemma 1):
// a cluster is a maximal run of nonempty cells; because the scaled index
// mapping preserves order, distinct clusters have disjoint target ranges,
// so each cluster is copied without any synchronization on the target.
func (m *migration) processGrowBlock(b uint64) uint64 {
	src := m.src
	c := src.capacity
	begin := b * migBlockCells
	end := begin + migBlockCells
	if end > c {
		end = c
	}
	var moved uint64

	i := begin
	// If the cell before the block is occupied, the cluster covering the
	// block's first cells started earlier and belongs to a previous
	// block's owner; skip to the first empty cell ("implicitly moving the
	// block border", Fig. 1b).
	if _, _, prevEmpty := m.stabilize((begin + c - 1) & (c - 1)); !prevEmpty {
		for i < end {
			_, _, empty := m.stabilize(i)
			i++
			if empty {
				break
			}
		}
		if i == end {
			if _, _, empty := m.stabilize(end - 1); !empty {
				// The whole block is interior to a foreign cluster.
				return 0
			}
		}
	}
	for i < end {
		_, _, empty := m.stabilize(i)
		if empty {
			i++
			continue
		}
		consumed, mv := m.copyCluster(i)
		moved += mv
		i += consumed // may run past end; the tail belongs to this block's cluster
	}
	return moved
}

// copyCluster copies the cluster starting at src cell `start` into dst by
// order-preserving sequential reinsertion: each live element is placed at
// the first free dst cell at or after its scaled home position. Lemma 1
// guarantees the touched dst range is exclusive to this cluster, so plain
// (atomic, unsynchronized) stores suffice. Dead cells (tombstones) are
// dropped — this is the §5.4 cleanup. Returns the number of source cells
// consumed (including the terminating empty cell) and elements moved.
func (m *migration) copyCluster(start uint64) (consumed, moved uint64) {
	src, dst := m.src, m.dst
	smask := src.capacity - 1
	dmask := dst.capacity - 1
	diff := dst.logCap - src.logCap
	base := start << diff
	for {
		pos := (start + consumed) & smask
		k, v, empty := m.stabilize(pos)
		consumed++
		if empty {
			return consumed, moved
		}
		if v&liveBit == 0 {
			if consumed > src.capacity {
				panic("core: migration found no empty cell — load invariant broken")
			}
			continue
		}
		tpos := dst.index(hashfn.Hash64(k))
		u := tpos
		if u < base {
			// Element of a cluster wrapping the end of the table: its
			// target wraps too; continue in unwrapped coordinates.
			u += dst.capacity
		}
		// First free target cell at or after the home position. Only this
		// thread writes this cluster's target range, so the scan is exact.
		for dst.loadKey(u&dmask) != 0 {
			u++
		}
		d := u & dmask
		// Plain stores are safe here (marking-race audit): dst is not yet
		// published, application writers only reach it after onDone flips
		// the table pointer — which happens after the block barrier, hence
		// after every copy store — and Lemma 1 makes this cluster's target
		// range exclusive to this thread even among migrators. Value before
		// key, as in the claim protocol, so a published key always has its
		// value visible.
		dst.storeVal(d, v&valueMask|liveBit)
		dst.storeKey(d, k)
		moved++
		if consumed > src.capacity {
			panic("core: migration found no empty cell — load invariant broken")
		}
	}
}

// processShrinkBlock is phase 1 of the shrinking algorithm (§5.3.1): the
// source block maps onto a disjoint target block; elements are placed at
// the first free cell at or after their home position inside the target
// block, and elements that do not fit are deferred to phase 2 (finalize).
//
// Each element's placement scan starts at its *own* home position, never
// at a shared monotone cursor. A cursor would assume that source index
// order implies nondecreasing target homes — which tombstone dropping
// breaks: a key displaced far past its home (the cells in between were
// occupied when it was inserted, then deleted to tombstones) can follow a
// later-homed key in source order, and a cursor would place it past empty
// target cells, making it unreachable by probing from its home (a
// deterministic lost element; caught by the sliding-window torture suite).
// Scanning from the home cell maintains the probe invariant for any
// placement order, exactly like copyCluster's target scan.
func (m *migration) processShrinkBlock(b uint64) uint64 {
	src, dst := m.src, m.dst
	begin := b * migBlockCells
	end := begin + migBlockCells
	if end > src.capacity {
		end = src.capacity
	}
	diff := src.logCap - dst.logCap
	tb := begin >> diff
	te := end >> diff
	var moved uint64
	var left []kv
	for i := begin; i < end; i++ {
		k, v, empty := m.stabilize(i)
		if empty || v&liveBit == 0 {
			continue
		}
		tpos := dst.index(hashfn.Hash64(k))
		if tpos < tb || tpos >= te {
			// Home outside this block's exclusive target range (the
			// element's cluster crosses a block boundary, or wraps around
			// the table end). Phase 1 must not write outside [tb, te), so
			// defer to the exclusive phase 2, which probes the whole table.
			left = append(left, kv{k, v & valueMask})
			continue
		}
		pos := tpos
		for pos < te && dst.loadKey(pos) != 0 {
			pos++
		}
		if pos >= te {
			left = append(left, kv{k, v & valueMask})
			continue
		}
		dst.storeVal(pos, v&valueMask|liveBit)
		dst.storeKey(pos, k)
		moved++
	}
	if len(left) > 0 {
		m.leftMu.Lock()
		m.leftover = append(m.leftover, left...)
		m.leftMu.Unlock()
	}
	return moved
}
