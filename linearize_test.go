package growt_test

import (
	"hash/maphash"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	growt "repro"
	"repro/internal/linearize"
)

// facadeOps is what a worker of facadeLinearizable drives: *growt.Handle
// as it is, and the handle-free Map through mapOps.
type facadeOps[K comparable] interface {
	Insert(k K, v uint64) bool
	Update(k K, d uint64, up func(cur, d uint64) uint64) bool
	InsertOrUpdate(k K, d uint64, up func(cur, d uint64) uint64) bool
	Find(k K) (uint64, bool)
	Delete(k K) bool
	LoadAndDelete(k K) (uint64, bool)
	CompareAndDelete(k K, old uint64) bool
}

// mapOps spells the handle's primitives with the handle-free methods, so
// that every operation of its worker borrows and gives back a handle.
type mapOps[K comparable] struct{ *growt.Map[K, uint64] }

func (m mapOps[K]) Insert(k K, v uint64) bool {
	_, loaded := m.LoadOrStore(k, v)
	return !loaded
}
func (m mapOps[K]) InsertOrUpdate(k K, d uint64, up func(cur, d uint64) uint64) bool {
	return m.Compute(k, d, up)
}
func (m mapOps[K]) Find(k K) (uint64, bool) { return m.Load(k) }

// facadeLinearizable records histories on a small set of contended keys
// through growt.Map — odd workers through a handle of their own, even ones
// through the handle-free methods — and validates them with the
// Wing–Gong checker that internal/core applies to the raw word tables. m
// must start tiny: every worker also inserts a stream of never-repeated
// filler keys, so the core migrates many times while the contended keys
// are being mutated. The run fails if no migration was observed.
//
// The plain history mixes Insert / Update / InsertOrUpdate / Find /
// Delete evenly over 24 keys and lets the fillers accumulate (growth).
// The delete-heavy one spends 40 % of its operations on Delete /
// LoadAndDelete / CompareAndDelete over 8 keys and 4 values, and deletes
// every filler a few operations after inserting it: on the generic route
// chains die, are sealed and dropped, and are created again all the time,
// while the tombstones this leaves in the core keep cleanup migrations
// running underneath. wantDrops demands that at least one chain drop was
// observed.
func facadeLinearizable[K comparable](t *testing.T, m *growt.Map[K, uint64], key func(uint64) K, deleteHeavy, wantDrops bool) {
	t.Helper()
	defer m.Close()
	const workers = 6
	// Both key sets include 0: the full-key wrapper's special slot on the
	// word route.
	hotKeys, vals, kinds := 24, 1000, 5
	if deleteHeavy {
		hotKeys, vals, kinds = 8, 4, 10
	}
	opsPerG := 500
	if testing.Short() {
		opsPerG = 150
	}
	drops := readReclaimed().chains
	hist := linearize.NewHistory()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var h facadeOps[K] = m.Handle()
			if w%2 == 0 {
				h = mapOps[K]{m}
			}
			r := hist.Recorder()
			rnd := rand.New(rand.NewSource(int64(w*7919 + 13)))
			filler := uint64(w+1) << 32
			for n := 0; n < opsPerG; n++ {
				filler++
				h.Insert(key(filler), filler)
				if deleteHeavy && n >= 4 {
					h.Delete(key(filler - 4))
				}
				ck := uint64(rnd.Intn(hotKeys))
				k := key(ck)
				v := uint64(rnd.Intn(vals)) + 1
				switch rnd.Intn(kinds) {
				case 0, 5:
					i := r.Invoke(linearize.OpInsert, ck, v)
					r.Return(i, 0, h.Insert(k, v))
				case 1, 6:
					i := r.Invoke(linearize.OpDelete, ck, 0)
					r.Return(i, 0, h.Delete(k))
				case 2:
					i := r.Invoke(linearize.OpUpdate, ck, v)
					r.Return(i, 0, h.Update(k, v, growt.Replace[uint64]))
				case 3, 7:
					i := r.Invoke(linearize.OpUpsert, ck, v)
					r.Return(i, 0, h.InsertOrUpdate(k, v, growt.Replace[uint64]))
				case 4:
					i := r.Invoke(linearize.OpFind, ck, 0)
					out, ok := h.Find(k)
					r.Return(i, out, ok)
				case 8:
					i := r.Invoke(linearize.OpLoadAndDelete, ck, 0)
					out, ok := h.LoadAndDelete(k)
					r.Return(i, out, ok)
				case 9:
					i := r.Invoke(linearize.OpCompareAndDelete, ck, v)
					r.Return(i, 0, h.CompareAndDelete(k, v))
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Generation() == 0 {
		t.Fatal("no migration happened: the history does not cover the growing path")
	}
	if wantDrops && readReclaimed().chains == drops {
		t.Fatal("no chain was dropped: the history does not cover reclamation")
	}
	if err := hist.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeLinearizable lifts the core's linearizability check one layer,
// to growt.Map on both key routes, from an 8-cell table: the plain history
// under growth, the delete-heavy one under reclamation.
func TestFacadeLinearizable(t *testing.T) {
	strKey := func(k uint64) string { return strconv.FormatUint(k, 10) }
	// The contended keys (at most two digits) share four hash values, so
	// their inserts, deaths, re-inserts and finds race on collision chains
	// that only drop when a whole bucket is dead; the filler keys hash
	// properly and keep the core migrating.
	seed := maphash.MakeSeed()
	colliding := growt.WithHasher(func(s string) uint64 {
		h := maphash.String(seed, s)
		if len(s) <= 2 {
			h &= 3
		}
		return h
	})
	for _, heavy := range []bool{false, true} {
		name := "plain"
		if heavy {
			name = "delete-heavy"
		}
		t.Run(name+"/word", func(t *testing.T) {
			facadeLinearizable(t, growt.New[uint64, uint64](growt.WithCapacity(8)),
				func(k uint64) uint64 { return k }, heavy, false)
		})
		t.Run(name+"/generic-string", func(t *testing.T) {
			facadeLinearizable(t, growt.New[string, uint64](growt.WithCapacity(8)), strKey, heavy, true)
		})
		t.Run(name+"/generic-string-colliding", func(t *testing.T) {
			facadeLinearizable(t, growt.New[string, uint64](growt.WithCapacity(8), colliding), strKey, heavy, heavy)
		})
	}
}
