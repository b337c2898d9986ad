package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/linearize"
	"repro/internal/tables"
)

// This file is the migration torture suite: tests that force the
// mark/claim/arm interleavings of the growing protocol as hard as
// possible and validate the results with exact assertions and with the
// linearizability checker of repro/internal/linearize.
//
// The historical bug this suite was built around: initiate's pre-arm
// guard and the migration-slot CAS are separate steps, so an entire
// migration cycle could complete between them and a late CAS would arm a
// migration of a retired generation, republishing its snapshot as the
// current table (lost inserts and deletes at ~2–5% per run of the old
// TestConcurrentDeleteInsert under -race). Grow.arm now re-validates the
// generation after the CAS; TestStaleMigrationArmRefused replays the
// interleaving deterministically.

// TestConcurrentDeleteInsert: concurrent alternating insert/delete on a
// sliding window from several goroutines with disjoint key ranges —
// table-driven across all four strategies and initial capacities, so every
// combination of recruitment policy × consistency protocol is tortured
// from "migrating constantly" (capacity 8) to "migrating occasionally"
// (capacity 4096). The full matrix runs by default (tier-1); -short trims
// to one capacity per strategy.
func TestConcurrentDeleteInsert(t *testing.T) {
	capacities := []uint64{8, 64, 4096}
	if testing.Short() {
		capacities = []uint64{64}
	}
	for _, s := range allStrategies() {
		for _, c := range capacities {
			s, c := s, c
			t.Run(fmt.Sprintf("%s/cap%d", s, c), func(t *testing.T) {
				g := NewGrow(s, c)
				defer g.Close()
				const goroutines = 4
				const perG = 6000
				const window = 256
				errs := make(chan error, goroutines)
				var wg sync.WaitGroup
				for i := 0; i < goroutines; i++ {
					wg.Add(1)
					go func(id uint64) {
						defer wg.Done()
						h := g.Handle()
						base := id * 10_000_000
						for j := uint64(1); j <= perG; j++ {
							if !h.Insert(base+j, j) {
								errs <- fmt.Errorf("goroutine %d: insert %d failed (key spuriously present)", id, j)
								return
							}
							if j > window {
								if !h.Delete(base + j - window) {
									errs <- fmt.Errorf("goroutine %d: delete %d failed (insert was lost)", id, j-window)
									return
								}
							}
						}
					}(uint64(i))
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				if t.Failed() {
					t.FailNow()
				}
				h := g.Handle()
				for i := uint64(0); i < goroutines; i++ {
					base := i * 10_000_000
					for j := uint64(perG - window + 1); j <= perG; j++ {
						if v, ok := h.Find(base + j); !ok || v != j {
							t.Fatalf("goroutine %d window key %d missing after the dust settled", i, j)
						}
					}
					if _, ok := h.Find(base + 1); ok {
						t.Fatalf("goroutine %d deleted key resurrected", i)
					}
				}
			})
		}
	}
}

// TestStaleMigrationArmRefused deterministically replays the lost-op race:
// a thread passes initiate's guard (cur==src, mig==nil), a complete
// migration cycle runs before its slot CAS, and the thread then tries to
// arm a migration of the now-retired generation. arm must refuse, release
// the slot, leave every operation intact, and not wedge helpers or later
// migrations.
func TestStaleMigrationArmRefused(t *testing.T) {
	for _, s := range allStrategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			g := NewGrow(s, 64)
			defer g.Close()
			h := g.Handle()
			h.Insert(1, 1)
			src := g.cur.Load() // T1 passes the guard here, then stalls

			// Intervening full cycle by another thread.
			g.initiate(src)
			g.assist()
			if g.cur.Load() == src {
				t.Fatal("setup: migration did not flip the table")
			}
			// An op lands in the new generation; the old code's stale
			// migration would roll it back.
			h.Insert(2, 2)

			// T1 resumes exactly where initiate's guard left off.
			m := g.migrationTo(src, NewTable(src.capacity))
			if g.arm(m) {
				t.Fatal("stale-src migration was armed — generation re-validation missing")
			}
			if g.mig.Load() != nil {
				t.Fatal("aborted arm leaked the migration slot")
			}
			// Liveness: a thread that adopted the aborted migration (via
			// assist's g.mig.Load()) must not block on it.
			m.help()
			m.wait()

			for k, want := range map[uint64]uint64{1: 1, 2: 2} {
				if v, ok := h.Find(k); !ok || v != want {
					t.Fatalf("key %d lost or corrupted after refused stale arm: (%d,%v)", k, v, ok)
				}
			}
			// The table must still migrate normally afterwards.
			g.initiate(g.cur.Load())
			g.assist()
			for k, want := range map[uint64]uint64{1: 1, 2: 2} {
				if v, ok := h.Find(k); !ok || v != want {
					t.Fatalf("key %d lost in the follow-up migration: (%d,%v)", k, v, ok)
				}
			}
		})
	}
}

// tortureLinearizable drives mixed operations plus a forced-migration
// churn goroutine against g, recording everything, and checks the full
// history for linearizability.
func tortureLinearizable(t *testing.T, g *Grow, goroutines, opsPerG, keys int) {
	t.Helper()
	hist := linearize.NewHistory()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.initiate(g.cur.Load())
				g.assist()
				// Let the op-recording goroutines run between migrations.
				// Without this the churn loop re-initiates the instant the
				// previous migration finishes, and on low-core hosts the
				// channel-handoff wakeups can keep scheduling only the
				// churn/pool-worker pair, starving the workers and hanging
				// the suite.
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := g.Handle()
			r := hist.Recorder()
			rnd := rand.New(rand.NewSource(seed))
			for n := 0; n < opsPerG; n++ {
				k := uint64(rnd.Intn(keys)) + 1
				v := uint64(rnd.Intn(1000)) + 1
				switch rnd.Intn(6) {
				case 0:
					i := r.Invoke(linearize.OpInsert, k, v)
					r.Return(i, 0, h.Insert(k, v))
				case 1:
					i := r.Invoke(linearize.OpDelete, k, 0)
					r.Return(i, 0, h.Delete(k))
				case 2:
					i := r.Invoke(linearize.OpUpdate, k, v)
					r.Return(i, 0, h.Update(k, v, tables.Overwrite))
				case 3:
					i := r.Invoke(linearize.OpUpsert, k, v)
					r.Return(i, 0, h.InsertOrUpdate(k, v, tables.Overwrite))
				case 4:
					i := r.Invoke(linearize.OpAdd, k, v)
					r.Return(i, 0, h.(tables.Adder).InsertOrAdd(k, v))
				case 5:
					i := r.Invoke(linearize.OpFind, k, 0)
					out, ok := h.Find(k)
					r.Return(i, out, ok)
				}
			}
		}(int64(i*7919 + 13))
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if err := hist.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationTortureLinearizable is the proof the ISSUE demands: under
// continuously forced migrations on tiny tables — the regime where the
// mark/claim/arm interleavings are densest — every recorded history of
// every strategy must be linearizable.
func TestMigrationTortureLinearizable(t *testing.T) {
	opsPerG := 500
	if testing.Short() {
		opsPerG = 150
	}
	for _, s := range allStrategies() {
		for _, c := range []uint64{8, 64} {
			s, c := s, c
			t.Run(fmt.Sprintf("%s/cap%d", s, c), func(t *testing.T) {
				g := NewGrow(s, c)
				defer g.Close()
				tortureLinearizable(t, g, 6, opsPerG, 32)
			})
		}
	}
}

// TestMigrationTortureGOMAXPROCS sweeps scheduler parallelism: P=1 forces
// long preemption windows (the stale-arm bug's natural habitat), larger P
// forces true parallel mark/claim collisions.
func TestMigrationTortureGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("GOMAXPROCS sweep skipped in -short mode")
	}
	procs := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		procs = append(procs, n)
	}
	for _, p := range procs {
		p := p
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(prev)
			g := NewGrow(UA, 8)
			defer g.Close()
			tortureLinearizable(t, g, 4, 400, 16)
		})
	}
}

// TestShrinkPlacementReachability is the regression matrix for the
// second lost-op bug this suite uncovered: phase 1 of the shrink
// migration placed elements with a shared monotone cursor instead of
// probing from each element's own home. Two displacement sources break
// the cursor's ordering assumption: keys displaced past since-tombstoned
// neighbours, and — in the pooled strategies, where writers keep
// operating while the pool migrates — keys displaced past
// migration-frozen cells. Either way the cursor could place a key beyond
// empty target cells, making it unreachable from its home (deterministic
// lost op; the paGrow cases below failed on the unfixed code).
func TestShrinkPlacementReachability(t *testing.T) {
	for _, cfg := range []struct{ cap, n, window uint64 }{
		{1 << 12, 4500, 256},
		{1 << 12, 4500, 128},
		{1 << 11, 3000, 256},
		{1 << 12, 6000, 256},
	} {
		for _, s := range []Strategy{UA, PA} {
			cfg, s := cfg, s
			t.Run(fmt.Sprintf("%s/cap%d/n%d/w%d", s, cfg.cap, cfg.n, cfg.window), func(t *testing.T) {
				g := NewGrow(s, cfg.cap)
				defer g.Close()
				h := g.Handle()
				for j := uint64(1); j <= cfg.n; j++ {
					if !h.Insert(j, j) {
						t.Fatalf("insert %d failed (key spuriously present)", j)
					}
					if j > cfg.window {
						if !h.Delete(j - cfg.window) {
							t.Fatalf("delete %d failed (insert was lost)", j-cfg.window)
						}
					}
				}
				for j := cfg.n - cfg.window + 1; j <= cfg.n; j++ {
					if v, ok := h.Find(j); !ok || v != j {
						t.Fatalf("window key %d unreachable after shrink migrations", j)
					}
				}
			})
		}
	}
}
