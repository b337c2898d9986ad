package growt_test

import (
	"sync"
	"testing"

	growt "repro"
)

func TestPublicAPISmoke(t *testing.T) {
	for _, opts := range []growt.Options{
		{},
		{Strategy: growt.USGrow},
		{Strategy: growt.PAGrow},
		{Strategy: growt.PSGrow},
		{Bounded: true, Expected: 10000},
	} {
		m := growt.NewMap(opts)
		h := m.Handle()
		for k := uint64(1); k <= 5000; k++ {
			if !h.Insert(k, k*2) {
				t.Fatalf("%+v: insert %d", opts, k)
			}
		}
		for k := uint64(1); k <= 5000; k++ {
			if v, ok := h.Find(k); !ok || v != k*2 {
				t.Fatalf("%+v: find %d", opts, k)
			}
		}
		if n, ok := growt.ApproxSize(m); ok && (n < 4000 || n > 6000) {
			t.Fatalf("%+v: approx size %d", opts, n)
		}
		seen := 0
		growt.Range(m, func(k, v uint64) bool { seen++; return true })
		if seen != 5000 {
			t.Fatalf("%+v: range saw %d", opts, seen)
		}
		growt.Close(m)
	}
}

func TestPublicAggregation(t *testing.T) {
	m := growt.NewMap(growt.Options{Strategy: growt.USGrow})
	defer growt.Close(m)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Handle()
			for j := 0; j < 10000; j++ {
				h.InsertOrUpdate(uint64(j%100)+1, 1, growt.AddFn)
			}
		}()
	}
	wg.Wait()
	h := m.Handle()
	var sum uint64
	for k := uint64(1); k <= 100; k++ {
		v, _ := h.Find(k)
		sum += v
	}
	if sum != 40000 {
		t.Fatalf("sum %d", sum)
	}
}

func TestPublicFullKeyMap(t *testing.T) {
	m := growt.NewFullKeyMap(func() growt.WordMap {
		return growt.NewMap(growt.Options{})
	})
	h := m.Handle()
	for _, k := range []uint64{0, 1, ^uint64(0), 1 << 63, growt.MaxKey} {
		if !h.Insert(k, 7) {
			t.Fatalf("insert %#x", k)
		}
		if v, ok := h.Find(k); !ok || v != 7 {
			t.Fatalf("find %#x", k)
		}
	}
	m.Close()
}
