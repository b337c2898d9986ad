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

// facadeLinearizable records Insert / Update / InsertOrUpdate / Find /
// Delete histories on a small set of contended keys through per-goroutine
// growt.Map handles and validates them with the Wing–Gong checker that
// internal/core applies to the raw word tables. m must start tiny: every
// worker also inserts a stream of never-repeated filler keys, so the core
// doubles (and, on the word route, cleans tombstones) many times while the
// contended keys are being mutated. The run fails if no migration was
// observed.
func facadeLinearizable[K comparable](t *testing.T, m *growt.Map[K, uint64], key func(uint64) K) {
	t.Helper()
	defer m.Close()
	const (
		workers = 6
		hotKeys = 24 // includes 0: the full-key wrapper's special slot on the word route
	)
	opsPerG := 500
	if testing.Short() {
		opsPerG = 150
	}
	hist := linearize.NewHistory()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.Handle()
			r := hist.Recorder()
			rnd := rand.New(rand.NewSource(int64(w*7919 + 13)))
			filler := uint64(w+1) << 32
			for n := 0; n < opsPerG; n++ {
				filler++
				h.Insert(key(filler), filler)
				ck := uint64(rnd.Intn(hotKeys))
				k := key(ck)
				v := uint64(rnd.Intn(1000)) + 1
				switch rnd.Intn(5) {
				case 0:
					i := r.Invoke(linearize.OpInsert, ck, v)
					r.Return(i, 0, h.Insert(k, v))
				case 1:
					i := r.Invoke(linearize.OpDelete, ck, 0)
					r.Return(i, 0, h.Delete(k))
				case 2:
					i := r.Invoke(linearize.OpUpdate, ck, v)
					r.Return(i, 0, h.Update(k, v, growt.Replace[uint64]))
				case 3:
					i := r.Invoke(linearize.OpUpsert, ck, v)
					r.Return(i, 0, h.InsertOrUpdate(k, v, growt.Replace[uint64]))
				case 4:
					i := r.Invoke(linearize.OpFind, ck, 0)
					out, ok := h.Find(k)
					r.Return(i, out, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Generation() == 0 {
		t.Fatal("no migration happened: the history does not cover the growing path")
	}
	if err := hist.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeLinearizable lifts the core's linearizability check one layer,
// to growt.Map on both key routes, under growth from an 8-cell table.
func TestFacadeLinearizable(t *testing.T) {
	strKey := func(k uint64) string { return strconv.FormatUint(k, 10) }
	t.Run("word", func(t *testing.T) {
		facadeLinearizable(t, growt.New[uint64, uint64](growt.WithCapacity(8)),
			func(k uint64) uint64 { return k })
	})
	t.Run("generic-string", func(t *testing.T) {
		facadeLinearizable(t, growt.New[string, uint64](growt.WithCapacity(8)), strKey)
	})
	t.Run("generic-string-colliding", func(t *testing.T) {
		// The contended keys (at most two digits) share four hash values,
		// so their inserts, revivals and finds race on collision chains;
		// the filler keys hash properly and keep the core growing.
		seed := maphash.MakeSeed()
		m := growt.New[string, uint64](growt.WithCapacity(8), growt.WithHasher(func(s string) uint64 {
			h := maphash.String(seed, s)
			if len(s) <= 2 {
				h &= 3
			}
			return h
		}))
		facadeLinearizable(t, m, strKey)
	})
}
