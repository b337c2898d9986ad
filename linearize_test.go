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
type facadeOps[K comparable, V any] interface {
	Insert(k K, v V) bool
	Update(k K, d V, up func(cur, d V) V) bool
	InsertOrUpdate(k K, d V, up func(cur, d V) V) bool
	Find(k K) (V, bool)
	Delete(k K) bool
	LoadAndDelete(k K) (V, bool)
	CompareAndDelete(k K, old V) bool
}

// mapOps spells the handle's primitives with the handle-free methods, so
// that every operation of its worker borrows and gives back a handle.
type mapOps[K comparable, V any] struct{ *growt.Map[K, V] }

func (m mapOps[K, V]) Insert(k K, v V) bool {
	_, loaded := m.LoadOrStore(k, v)
	return !loaded
}
func (m mapOps[K, V]) InsertOrUpdate(k K, d V, up func(cur, d V) V) bool {
	return m.Compute(k, d, up)
}
func (m mapOps[K, V]) Find(k K) (V, bool) { return m.Load(k) }

// wordCodec names the checker's word-sized keys and values in a map's own
// types, and reads a value back into a word (0 for the zero value a miss
// returns).
type wordCodec[K comparable, V any] struct {
	key   func(uint64) K
	val   func(uint64) V
	unval func(V) uint64
}

func ident(x uint64) uint64     { return x }
func decimal(x uint64) string   { return strconv.FormatUint(x, 10) }
func undecimal(s string) uint64 { x, _ := strconv.ParseUint(s, 10, 64); return x }

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
func facadeLinearizable[K comparable, V any](t *testing.T, m *growt.Map[K, V], c wordCodec[K, V], deleteHeavy, wantDrops bool) {
	t.Helper()
	key, val := c.key, c.val
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
			var h facadeOps[K, V] = m.Handle()
			if w%2 == 0 {
				h = mapOps[K, V]{m}
			}
			r := hist.Recorder()
			rnd := rand.New(rand.NewSource(int64(w*7919 + 13)))
			filler := uint64(w+1) << 32
			for n := 0; n < opsPerG; n++ {
				filler++
				h.Insert(key(filler), val(filler))
				if deleteHeavy && n >= 4 {
					h.Delete(key(filler - 4))
				}
				ck := uint64(rnd.Intn(hotKeys))
				k := key(ck)
				v := uint64(rnd.Intn(vals)) + 1
				switch rnd.Intn(kinds) {
				case 0, 5:
					i := r.Invoke(linearize.OpInsert, ck, v)
					r.Return(i, 0, h.Insert(k, val(v)))
				case 1, 6:
					i := r.Invoke(linearize.OpDelete, ck, 0)
					r.Return(i, 0, h.Delete(k))
				case 2:
					i := r.Invoke(linearize.OpUpdate, ck, v)
					r.Return(i, 0, h.Update(k, val(v), growt.Replace[V]))
				case 3, 7:
					i := r.Invoke(linearize.OpUpsert, ck, v)
					r.Return(i, 0, h.InsertOrUpdate(k, val(v), growt.Replace[V]))
				case 4:
					i := r.Invoke(linearize.OpFind, ck, 0)
					out, ok := h.Find(k)
					r.Return(i, c.unval(out), ok)
				case 8:
					i := r.Invoke(linearize.OpLoadAndDelete, ck, 0)
					out, ok := h.LoadAndDelete(k)
					r.Return(i, c.unval(out), ok)
				case 9:
					i := r.Invoke(linearize.OpCompareAndDelete, ck, v)
					r.Return(i, 0, h.CompareAndDelete(k, val(v)))
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
// to growt.Map on both routes, from an 8-cell table: the plain history
// under growth, the delete-heavy one under reclamation.
func TestFacadeLinearizable(t *testing.T) {
	word := wordCodec[uint64, uint64]{ident, ident, ident}
	strKey := wordCodec[string, uint64]{decimal, ident, ident}
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
			facadeLinearizable(t, growt.New[uint64, uint64](growt.WithCapacity(8)), word, heavy, false)
		})
		t.Run(name+"/generic-uint64-string", func(t *testing.T) { // default integer hasher
			facadeLinearizable(t, growt.New[uint64, string](growt.WithCapacity(8)),
				wordCodec[uint64, string]{ident, decimal, undecimal}, heavy, true)
		})
		t.Run(name+"/generic-string", func(t *testing.T) {
			facadeLinearizable(t, growt.New[string, uint64](growt.WithCapacity(8)), strKey, heavy, true)
		})
		t.Run(name+"/generic-string-colliding", func(t *testing.T) {
			facadeLinearizable(t, growt.New[string, uint64](growt.WithCapacity(8), colliding), strKey, heavy, heavy)
		})
	}
}
