package baselines

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	_ "repro/internal/core" // register the paper's tables (Table 1 check)
	"repro/internal/tables"
)

// concurrent lists the baselines that allow fully concurrent mixed
// operations; "seq" (sequential only) and "phase" (phase concurrent) are
// driven separately under their disciplines.
var concurrent = []string{
	"mutexmap", "shardedmap", "syncmap", "lockedchain", "leahash",
	"hopscotch", "cuckoo", "folly", "splitorder", "junctionlinear",
}

var all = append([]string{"seq", "phase"}, concurrent...)

func mk(t *testing.T, name string, capacity uint64) tables.Interface {
	t.Helper()
	tab, err := tables.New(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSequentialSemantics runs the shared sequential differential test on
// every baseline.
func TestSequentialSemantics(t *testing.T) {
	for _, name := range all {
		name := name
		t.Run(name, func(t *testing.T) {
			h := mk(t, name, 4096).Handle()
			model := map[uint64]uint64{}
			r := rand.New(rand.NewSource(42))
			for i := 0; i < 30000; i++ {
				k := uint64(r.Intn(700)) + 1
				v := uint64(r.Intn(1 << 30))
				switch r.Intn(5) {
				case 0:
					_, p := model[k]
					if h.Insert(k, v) == p {
						t.Fatalf("op %d insert(%d) disagrees with model (present=%v)", i, k, p)
					}
					if !p {
						model[k] = v
					}
				case 1:
					_, p := model[k]
					if h.Update(k, v, tables.AddFn) != p {
						t.Fatalf("op %d update(%d) disagrees", i, k)
					}
					if p {
						model[k] += v
					}
				case 2:
					_, p := model[k]
					if h.InsertOrUpdate(k, v, tables.AddFn) == p {
						t.Fatalf("op %d upsert(%d) disagrees", i, k)
					}
					if p {
						model[k] += v
					} else {
						model[k] = v
					}
				case 3:
					want, p := model[k]
					got, ok := h.Find(k)
					if ok != p || (ok && got != want) {
						t.Fatalf("op %d find(%d)=(%d,%v) want (%d,%v)", i, k, got, ok, want, p)
					}
				case 4:
					_, p := model[k]
					if h.Delete(k) != p {
						t.Fatalf("op %d delete(%d) disagrees", i, k)
					}
					delete(model, k)
				}
			}
			for k, want := range model {
				if got, ok := h.Find(k); !ok || got != want {
					t.Fatalf("final find(%d)=(%d,%v) want %d", k, got, ok, want)
				}
			}
		})
	}
}

// TestQuickSmallTables drives each baseline through quick-generated op
// sequences on small tables (stresses collision paths and displacement).
func TestQuickSmallTables(t *testing.T) {
	for _, name := range all {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(ops []struct {
				Kind, Key uint8
				Val       uint16
			}) bool {
				h := mk(t, name, 256).Handle()
				model := map[uint64]uint64{}
				for _, op := range ops {
					k := uint64(op.Key)%64 + 1
					v := uint64(op.Val) + 1
					switch op.Kind % 4 {
					case 0:
						_, p := model[k]
						if h.Insert(k, v) == p {
							return false
						}
						if !p {
							model[k] = v
						}
					case 1:
						want, p := model[k]
						got, ok := h.Find(k)
						if ok != p || (ok && got != want) {
							return false
						}
					case 2:
						_, p := model[k]
						if h.InsertOrUpdate(k, v, tables.Overwrite) == p {
							return false
						}
						model[k] = v
					case 3:
						_, p := model[k]
						if h.Delete(k) != p {
							return false
						}
						delete(model, k)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentUniqueInsert: the §4 exactly-one-winner contract for all
// concurrent baselines.
func TestConcurrentUniqueInsert(t *testing.T) {
	const goroutines = 8
	const keys = 8000
	for _, name := range concurrent {
		name := name
		t.Run(name, func(t *testing.T) {
			tab := mk(t, name, keys)
			var wins [goroutines]uint64
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := tab.Handle()
					for k := uint64(1); k <= keys; k++ {
						if h.Insert(k, uint64(id)+1) {
							wins[id]++
						}
					}
				}(i)
			}
			wg.Wait()
			var total uint64
			for _, w := range wins {
				total += w
			}
			if total != keys {
				t.Fatalf("insert successes %d, want %d", total, keys)
			}
			h := tab.Handle()
			for k := uint64(1); k <= keys; k++ {
				if v, ok := h.Find(k); !ok || v < 1 || v > goroutines {
					t.Fatalf("key %d: %d,%v", k, v, ok)
				}
			}
		})
	}
}

// TestConcurrentAggregation: no lost updates on insert-or-increment.
func TestConcurrentAggregation(t *testing.T) {
	const goroutines = 6
	const perG = 20000
	const keys = 256
	for _, name := range concurrent {
		name := name
		t.Run(name, func(t *testing.T) {
			tab := mk(t, name, keys*4)
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := tab.Handle()
					r := rand.New(rand.NewSource(seed))
					for j := 0; j < perG; j++ {
						h.InsertOrUpdate(uint64(r.Intn(keys))+1, 1, tables.AddFn)
					}
				}(int64(i))
			}
			wg.Wait()
			h := tab.Handle()
			var sum uint64
			for k := uint64(1); k <= keys; k++ {
				v, _ := h.Find(k)
				sum += v
			}
			if sum != goroutines*perG {
				t.Fatalf("lost updates: %d != %d", sum, goroutines*perG)
			}
		})
	}
}

// TestConcurrentGrowth: concurrent inserts across growth events.
func TestConcurrentGrowth(t *testing.T) {
	growers := []string{"mutexmap", "shardedmap", "syncmap", "lockedchain",
		"leahash", "cuckoo", "folly", "splitorder", "junctionlinear"}
	const goroutines = 4
	const perG = 20000
	for _, name := range growers {
		name := name
		t.Run(name, func(t *testing.T) {
			capacity := uint64(64)
			if name == "folly" {
				// folly is a semi-grower (bounded growth factor, §8.1.2):
				// the paper initializes it with half the target size.
				capacity = goroutines * perG / 2
			}
			tab := mk(t, name, capacity)
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(base uint64) {
					defer wg.Done()
					h := tab.Handle()
					for j := uint64(1); j <= perG; j++ {
						if !h.Insert(base+j, base+j) {
							panic("insert of unique key failed")
						}
					}
				}(uint64(i) * 1_000_000)
			}
			wg.Wait()
			h := tab.Handle()
			for i := uint64(0); i < goroutines; i++ {
				base := i * 1_000_000
				for j := uint64(1); j <= perG; j += 97 {
					if v, ok := h.Find(base + j); !ok || v != base+j {
						t.Fatalf("key %d lost across growth", base+j)
					}
				}
			}
			if s, ok := tab.(tables.Sizer); ok {
				if got := s.ApproxSize(); got != goroutines*perG {
					t.Fatalf("size %d want %d", got, goroutines*perG)
				}
			}
		})
	}
}

// TestPhaseDiscipline drives the phase-concurrent table through proper
// globally synchronized phases: parallel insert phase, parallel find
// phase, parallel delete phase (with backward-shift repair), then a
// verification phase.
func TestPhaseDiscipline(t *testing.T) {
	tab := mk(t, "phase", 40000)
	const goroutines = 8
	const keys = 20000
	run := func(f func(h tables.Handle, part int)) {
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(part int) {
				defer wg.Done()
				f(tab.Handle(), part)
			}(i)
		}
		wg.Wait()
	}
	// Insert phase.
	run(func(h tables.Handle, part int) {
		for k := part + 1; k <= keys; k += goroutines {
			if !h.Insert(uint64(k), uint64(k)*2) {
				panic("phase insert failed")
			}
		}
	})
	// Find phase.
	run(func(h tables.Handle, part int) {
		for k := part + 1; k <= keys; k += goroutines {
			if v, ok := h.Find(uint64(k)); !ok || v != uint64(k)*2 {
				panic("phase find failed")
			}
		}
	})
	// Delete phase: remove odd keys.
	run(func(h tables.Handle, part int) {
		for k := part + 1; k <= keys; k += goroutines {
			if k%2 == 1 {
				if !h.Delete(uint64(k)) {
					panic("phase delete failed")
				}
			}
		}
	})
	// Verify phase.
	run(func(h tables.Handle, part int) {
		for k := part + 1; k <= keys; k += goroutines {
			v, ok := h.Find(uint64(k))
			if k%2 == 1 && ok {
				panic("deleted key still present")
			}
			if k%2 == 0 && (!ok || v != uint64(k)*2) {
				panic("surviving key lost by backward-shift deletion")
			}
		}
	})
	if got := tab.(tables.Sizer).ApproxSize(); got != keys/2 {
		t.Fatalf("size after delete phase: %d want %d", got, keys/2)
	}
}

// TestHopscotchDisplacement fills a small table enough to force hopscotch
// moves and verifies the hop invariants via Find.
func TestHopscotchDisplacement(t *testing.T) {
	tab := NewHopscotch(3000)
	h := tab.Handle()
	for k := uint64(1); k <= 3000; k++ {
		if !h.Insert(k, k^42) {
			t.Fatalf("insert %d", k)
		}
	}
	for k := uint64(1); k <= 3000; k++ {
		if v, ok := h.Find(k); !ok || v != k^42 {
			t.Fatalf("find %d after displacement", k)
		}
	}
}

// TestCuckooForcedRehash inserts far past the initial capacity to force
// BFS evictions and full rehashes.
func TestCuckooForcedRehash(t *testing.T) {
	tab := NewCuckoo(64)
	h := tab.Handle()
	const n = 20000
	for k := uint64(1); k <= n; k++ {
		if !h.Insert(k, k+7) {
			t.Fatalf("insert %d", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := h.Find(k); !ok || v != k+7 {
			t.Fatalf("find %d after rehash", k)
		}
	}
	if tab.ApproxSize() != n {
		t.Fatalf("size %d", tab.ApproxSize())
	}
}

// TestSplitOrderBucketGrowth checks lazy bucket initialization across
// growth.
func TestSplitOrderBucketGrowth(t *testing.T) {
	tab := NewSplitOrder(4)
	h := tab.Handle()
	const n = 50000
	for k := uint64(1); k <= n; k++ {
		if !h.Insert(k, k) {
			t.Fatalf("insert %d", k)
		}
	}
	if tab.nBuck.Load() <= 4 {
		t.Fatal("bucket count did not grow")
	}
	for k := uint64(1); k <= n; k += 13 {
		if _, ok := h.Find(k); !ok {
			t.Fatalf("find %d", k)
		}
	}
	// Delete half and verify unlinking.
	for k := uint64(1); k <= n; k += 2 {
		if !h.Delete(k) {
			t.Fatalf("delete %d", k)
		}
	}
	for k := uint64(1); k <= n; k += 2 {
		if _, ok := h.Find(k); ok {
			t.Fatalf("deleted %d still present", k)
		}
		if _, ok := h.Find(k + 1); k+1 <= n && !ok {
			t.Fatalf("survivor %d lost", k+1)
		}
	}
}

// TestFollyBoundedGrowth verifies the subtable chain grows and lookups
// walk it.
func TestFollyBoundedGrowth(t *testing.T) {
	// Initial size chosen so that 3000 elements need several subtables
	// yet stay within folly's bounded total growth factor (~15×).
	tab := NewFolly(256)
	h := tab.Handle()
	const n = 3000
	for k := uint64(1); k <= n; k++ {
		if !h.Insert(k, k) {
			t.Fatalf("insert %d", k)
		}
	}
	if len(*tab.subs.Load()) < 2 {
		t.Fatal("no extra subtables allocated")
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := h.Find(k); !ok || v != k {
			t.Fatalf("find %d across subtables", k)
		}
	}
}

// TestRangeAndSizers exercises the optional interfaces across baselines.
func TestRangeAndSizers(t *testing.T) {
	for _, name := range all {
		name := name
		t.Run(name, func(t *testing.T) {
			tab := mk(t, name, 1024)
			h := tab.Handle()
			for k := uint64(1); k <= 100; k++ {
				h.Insert(k, k*2)
			}
			if r, ok := tab.(tables.Ranger); ok {
				seen := map[uint64]uint64{}
				r.Range(func(k, v uint64) bool { seen[k] = v; return true })
				if len(seen) != 100 {
					t.Fatalf("range saw %d elements", len(seen))
				}
				for k, v := range seen {
					if v != k*2 {
						t.Fatalf("range value wrong for %d", k)
					}
				}
			}
			if s, ok := tab.(tables.Sizer); ok {
				if s.ApproxSize() != 100 {
					t.Fatalf("size %d", s.ApproxSize())
				}
			}
			if m, ok := tab.(tables.MemUser); ok {
				if m.MemBytes() == 0 {
					t.Fatal("MemBytes zero")
				}
			}
		})
	}
}

// TestRegistryComplete: every expected table is registered with coherent
// capabilities (Table 1 source of truth).
func TestRegistryComplete(t *testing.T) {
	want := append([]string{"folklore", "uaGrow", "usGrow",
		"paGrow", "psGrow"}, all...)
	for _, name := range want {
		caps, ok := tables.Lookup(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if caps.Reference == "" || caps.StdInterface == "" {
			t.Errorf("%s has incomplete capabilities", name)
		}
	}
	if len(tables.All()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(tables.All()), len(want))
	}
}
