package growt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests look at the handle-free methods' idle handles from inside
// the package: how many a map has made, and that no two goroutines ever
// hold the same one.

// handlesMade counts m's pooled handles. Call it with no operation and no
// Session in flight: every handle made is then idle, in a slot or on the
// spare list.
func handlesMade[K comparable, V any](m *Map[K, V]) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for h := m.spare; h != nil; h = h.next {
		n++
	}
	for i := range m.slots {
		if m.slots[i].h.Load() != nil {
			n++
		}
	}
	return n
}

// TestOneGoroutineOneHandle: a slot hint lost at a GC must cost a look at
// the other slots, not a handle. One goroutine, a million operations, a
// forced GC every 10 000 (two in a row empty a sync.Pool): one handle.
// Only the Stores borrow it: a Load writes nothing and borrows nothing.
func TestOneGoroutineOneHandle(t *testing.T) {
	m := New[string, int]()
	defer m.Close()
	for i := 0; i < 1_000_000; i++ {
		if i%10_000 == 0 {
			runtime.GC()
		}
		if i%16 == 0 {
			m.Store("key", i)
		} else if _, ok := m.Load("key"); !ok {
			t.Fatalf("op %d: key lost", i)
		}
	}
	if n := handlesMade(m); n != 1 {
		t.Fatalf("one goroutine made %d handles, want 1", n)
	}
	if got := m.PoolBorrows(); got != 1_000_000/16 {
		t.Fatalf("PoolBorrows = %d after 62500 Stores and 937500 Loads, want 62500", got)
	}
}

// TestHandlesAtMostHolders: n goroutines looping over handle-free
// operations hold at most n handles at once, so at most n are made.
func TestHandlesAtMostHolders(t *testing.T) {
	m := New[uint64, uint64]()
	defer m.Close()
	n := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < 50_000; i++ {
				m.Compute(i%64, 1, Add[uint64])
				m.Load(g)
			}
		}(uint64(g))
	}
	wg.Wait()
	if made := handlesMade(m); made < 1 || made > n {
		t.Fatalf("%d goroutines made %d handles", n, made)
	}
}

// TestPanicsKeepHandles: every handle-free method, run a hundred times on
// a present key and a hundred times under a hasher that panics, leaves
// the map with the one handle it started with: a method that releases
// its handle anywhere but in a defer strands it at the first panic, one
// that never releases strands it at every call. The update functions
// panic too, and the map stays usable.
func TestPanicsKeepHandles(t *testing.T) {
	boom := func(cur, d int) int { panic("boom") }
	m := New[string, int](WithHasher(func(k string) uint64 {
		if k == "boom" {
			panic("boom")
		}
		return uint64(len(k))
	}))
	defer m.Close()
	m.Store("key", 1)
	for _, c := range []struct {
		method     string
		op         func(k string)
		userPanics bool // panics on a present key: its update function does
	}{
		{"Load", func(k string) { m.Load(k) }, false},
		{"Store", func(k string) { m.Store(k, 1) }, false},
		{"LoadOrStore", func(k string) { m.LoadOrStore(k, 1) }, false},
		{"Compute", func(k string) { m.Compute(k, 1, boom) }, true},
		{"Delete", func(k string) { m.Delete(k) }, false},
		{"LoadAndDelete", func(k string) { m.LoadAndDelete(k) }, false},
		{"CompareAndSwap", func(k string) { m.CompareAndSwap(k, 1, 1) }, false},
		{"CompareAndDelete", func(k string) { m.CompareAndDelete(k, 1) }, false},
		{"Update", func(k string) { m.Update(k, 1, boom) }, true},
	} {
		panicked := func(k string) (p bool) {
			defer func() { p = recover() != nil }()
			c.op(k)
			return
		}
		for i := 0; i < 100; i++ {
			m.Store("key", 1)
			if panicked("key") != c.userPanics {
				t.Fatalf("%s on a present key: panicked %v, want %v", c.method, !c.userPanics, c.userPanics)
			}
			if !panicked("boom") {
				t.Fatalf("%s: the hasher's panic did not reach the caller", c.method)
			}
		}
		if n := handlesMade(m); n != 1 {
			t.Fatalf("%s: %d handles after the panics, want 1", c.method, n)
		}
	}
	m.Store("key", 2)
	if v, ok := m.Load("key"); !ok || v != 2 {
		t.Fatalf("map unusable after the panics: %d, %v", v, ok)
	}
	// The word route parks the update function in its handle for the call.
	w := New[uint64, int]()
	defer w.Close()
	w.Store(1, 1)
	for i := 0; i < 1000; i++ {
		func() {
			defer func() { recover() }()
			w.Compute(1, 1, boom)
		}()
	}
	if n := handlesMade(w); n != 1 {
		t.Fatalf("word route: %d handles after the panics, want 1", n)
	}
	wh := w.acquire()
	defer w.release(wh)
	if h := wh.h.(*wordHandle[uint64, int]); h.up != nil || h.d != 0 {
		t.Fatal("word route: the panicking update function is still parked in the idle handle")
	}
}

// TestHandleFreeStress mixes handle-free operations, operations under a
// directly acquired handle and short-lived Sessions from 64 goroutines, on
// tables that start at 8 cells so that migrations run throughout. No
// handle may be in two hands at once (an in-use flag per handle, kept by
// the test), no update may be lost: a goroutine's own key holds exactly
// what it last stored, the shared counters end at the number of
// increments and never read lower than before.
func TestHandleFreeStress(t *testing.T) {
	for _, strat := range []Strategy{UAGrow, USGrow} {
		t.Run(strat.String(), func(t *testing.T) {
			stressHandleFree(t, New[string, uint64](WithStrategy(strat), WithCapacity(8)))
		})
	}
}

func stressHandleFree(t *testing.T, m *Map[string, uint64]) {
	defer m.Close()
	const goroutines, counters = 64, 8
	rounds := uint64(2000)
	if testing.Short() {
		rounds = 300
	}
	var inUse sync.Map // *Handle → *atomic.Bool
	hold := func(h *Handle[string, uint64]) *atomic.Bool {
		f, _ := inUse.LoadOrStore(h, new(atomic.Bool))
		if !f.(*atomic.Bool).CompareAndSwap(false, true) {
			t.Error("a handle is held by two goroutines")
		}
		return f.(*atomic.Bool)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", g)
			var seen [counters]uint64
			for i := uint64(1); i <= rounds; i++ {
				c := int(i) % counters
				ctr := fmt.Sprintf("ctr-%d", c)
				switch i % 4 {
				case 0: // handle-free
					m.Compute(ctr, 1, Add[uint64])
					m.Store(own, i)
				case 1: // the same under a handle acquired here, flagged
					h := m.acquire()
					f := hold(h)
					h.InsertOrUpdate(ctr, 1, Add[uint64])
					h.InsertOrUpdate(own, i, Replace[uint64])
					f.Store(false)
					m.release(h)
				case 2: // a Session opened and closed
					s := m.Session()
					f := hold(s.Handle)
					s.Compute(ctr, 1, Add[uint64])
					s.Store(own, i)
					f.Store(false)
					s.Close()
				case 3: // delete and re-create: chains die and are dropped
					if !m.Delete(own) {
						t.Errorf("round %d: %s was not there to delete", i, own)
					}
					m.Compute(ctr, 1, Add[uint64])
					m.Store(own, i)
				}
				if v, ok := m.Load(own); !ok || v != i {
					t.Errorf("round %d: %s = %d, %v", i, own, v, ok)
				}
				if v, _ := m.Load(ctr); v < seen[c] {
					t.Errorf("round %d: %s went back from %d to %d", i, ctr, seen[c], v)
				} else {
					seen[c] = v
				}
				m.Store(fmt.Sprintf("fill-%d-%d", g, i), i) // keeps the table growing
			}
		}(g)
	}
	wg.Wait()
	if m.Generation() == 0 {
		t.Fatal("no migration ran")
	}
	for c := 0; c < counters; c++ {
		// Counter c is incremented in the rounds i ≡ c (mod counters).
		want := goroutines * (rounds / counters)
		if uint64(c) >= 1 && uint64(c) <= rounds%counters {
			want += goroutines
		}
		if v, _ := m.Load(fmt.Sprintf("ctr-%d", c)); v != want {
			t.Errorf("ctr-%d = %d, want %d: an update was lost", c, v, want)
		}
	}
	if made := handlesMade(m); made > goroutines {
		t.Errorf("%d goroutines made %d handles", goroutines, made)
	}
}

// onWordRoute reports whether New puts the pair ⟨K, V⟩ on the word route;
// the generic route is the only other one.
func onWordRoute[K comparable, V any]() bool {
	m := New[K, V]()
	defer m.Close()
	_, word := m.b.(*wordBackend[K, V])
	return word
}

// TestRouting: the word route is for pairs of built-in integer or bool
// types; a wide value or any other key type takes the generic route, the
// one home of everything that is not a word.
func TestRouting(t *testing.T) {
	type nodeID uint64
	for _, c := range []struct {
		pair       string
		word, want bool
	}{
		{"uint64, uint64", onWordRoute[uint64, uint64](), true},
		{"int32, int16", onWordRoute[int32, int16](), true},
		{"bool, int", onWordRoute[bool, int](), true},
		{"uintptr, uint8", onWordRoute[uintptr, uint8](), true},
		{"uint64, string", onWordRoute[uint64, string](), false},
		{"uint64, []byte", onWordRoute[uint64, []byte](), false},
		{"int, struct{}", onWordRoute[int, struct{}](), false},
		{"uint64, float64", onWordRoute[uint64, float64](), false},
		{"uint64, *int", onWordRoute[uint64, *int](), false},
		{"string, uint64", onWordRoute[string, uint64](), false},
		{"nodeID, uint64", onWordRoute[nodeID, uint64](), false},
	} {
		if c.word != c.want {
			t.Errorf("New[%s] on the word route: %v, want %v", c.pair, c.word, c.want)
		}
	}
}

// TestWithBoundedZero: no expectation given means 2^20 elements.
func TestWithBoundedZero(t *testing.T) {
	var c config
	WithBounded(0)(&c)
	if !c.bounded || c.expected != 1<<20 {
		t.Fatalf("WithBounded(0): bounded=%v expected=%d, want true and 2^20", c.bounded, c.expected)
	}
}
