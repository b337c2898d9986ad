package linearize

import (
	"math/rand"
	"sync"
	"testing"
)

// mkOp builds a completed op for hand-written histories.
func mkOp(kind OpKind, key, val, out uint64, ok bool, start, end int64) Op {
	return Op{Kind: kind, Key: key, Val: val, Out: out, Ok: ok, Start: start, End: end}
}

// --- Acceptance: legal histories ---

func TestSequentialHistoryAccepted(t *testing.T) {
	ops := []Op{
		mkOp(OpInsert, 1, 10, 0, true, 1, 2),
		mkOp(OpFind, 1, 0, 10, true, 3, 4),
		mkOp(OpUpdate, 1, 20, 0, true, 5, 6),
		mkOp(OpFind, 1, 0, 20, true, 7, 8),
		mkOp(OpDelete, 1, 0, 0, true, 9, 10),
		mkOp(OpFind, 1, 0, 0, false, 11, 12),
		mkOp(OpInsert, 1, 30, 0, true, 13, 14), // tombstone revival
		mkOp(OpFind, 1, 0, 30, true, 15, 16),
	}
	if err := CheckOps(ops); err != nil {
		t.Fatalf("legal sequential history rejected: %v", err)
	}
}

func TestConcurrentReorderingAccepted(t *testing.T) {
	// Find overlaps the insert and already observes its value: legal,
	// because the insert may linearize first within the overlap.
	ops := []Op{
		mkOp(OpFind, 7, 0, 42, true, 1, 5),
		mkOp(OpInsert, 7, 42, 0, true, 2, 6),
	}
	if err := CheckOps(ops); err != nil {
		t.Fatalf("overlap reordering rejected: %v", err)
	}
	// The mirror image: find overlapping a delete may still see the value.
	ops = []Op{
		mkOp(OpInsert, 7, 42, 0, true, 1, 2),
		mkOp(OpDelete, 7, 0, 0, true, 3, 7),
		mkOp(OpFind, 7, 0, 42, true, 4, 6),
	}
	if err := CheckOps(ops); err != nil {
		t.Fatalf("find overlapping delete rejected: %v", err)
	}
}

func TestConcurrentInsertRaceAccepted(t *testing.T) {
	// Two overlapping inserts: exactly one may win.
	ops := []Op{
		mkOp(OpInsert, 3, 1, 0, true, 1, 5),
		mkOp(OpInsert, 3, 2, 0, false, 2, 6),
		mkOp(OpFind, 3, 0, 1, true, 7, 8),
	}
	if err := CheckOps(ops); err != nil {
		t.Fatalf("insert race rejected: %v", err)
	}
}

func TestInsertOrAddHistoryAccepted(t *testing.T) {
	ops := []Op{
		mkOp(OpAdd, 9, 5, 0, true, 1, 2),
		mkOp(OpAdd, 9, 3, 0, false, 3, 4),
		mkOp(OpFind, 9, 0, 8, true, 5, 6),
		mkOp(OpUpsert, 9, 100, 0, false, 7, 8),
		mkOp(OpFind, 9, 0, 100, true, 9, 10),
	}
	if err := CheckOps(ops); err != nil {
		t.Fatalf("add/upsert history rejected: %v", err)
	}
}

// --- Rejection: protocol violations the checker must catch ---

func TestLostInsertRejected(t *testing.T) {
	// Insert completed before the find began, yet the find missed it:
	// exactly what a lost op during migration looks like.
	ops := []Op{
		mkOp(OpInsert, 5, 77, 0, true, 1, 2),
		mkOp(OpFind, 5, 0, 0, false, 3, 4),
	}
	if err := CheckOps(ops); err == nil {
		t.Fatal("lost insert accepted")
	}
}

func TestLostDeleteRejected(t *testing.T) {
	// Delete succeeded, then a later insert of the same key reported
	// "already present": the delete's effect was rolled back.
	ops := []Op{
		mkOp(OpInsert, 5, 77, 0, true, 1, 2),
		mkOp(OpDelete, 5, 0, 0, true, 3, 4),
		mkOp(OpInsert, 5, 88, 0, false, 5, 6),
	}
	if err := CheckOps(ops); err == nil {
		t.Fatal("lost delete accepted")
	}
}

// The conditional and value-returning deletes: the value removed must be
// the one the key held, and a refused CompareAndDelete changes nothing.
func TestValueDeletes(t *testing.T) {
	legal := []Op{
		mkOp(OpInsert, 5, 7, 0, true, 1, 2),
		mkOp(OpCompareAndDelete, 5, 8, 0, false, 3, 4), // wrong value: refused
		mkOp(OpLoadAndDelete, 5, 0, 7, true, 5, 6),
		mkOp(OpCompareAndDelete, 5, 7, 0, false, 7, 8), // absent: refused
		mkOp(OpInsert, 5, 9, 0, true, 9, 10),
		mkOp(OpCompareAndDelete, 5, 9, 0, true, 11, 12),
		mkOp(OpLoadAndDelete, 5, 0, 0, false, 13, 14),
	}
	if err := CheckOps(legal); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
	for name, bad := range map[string][]Op{
		"LoadAndDelete returned a value the key never held": {
			mkOp(OpInsert, 5, 7, 0, true, 1, 2),
			mkOp(OpLoadAndDelete, 5, 0, 8, true, 3, 4),
		},
		"CompareAndDelete removed a value that did not match": {
			mkOp(OpInsert, 5, 7, 0, true, 1, 2),
			mkOp(OpCompareAndDelete, 5, 8, 0, true, 3, 4),
		},
		"CompareAndDelete refused a matching value": {
			mkOp(OpInsert, 5, 7, 0, true, 1, 2),
			mkOp(OpCompareAndDelete, 5, 7, 0, false, 3, 4),
		},
	} {
		if err := CheckOps(bad); err == nil {
			t.Errorf("accepted: %s", name)
		}
	}
}

func TestStaleFindRejected(t *testing.T) {
	ops := []Op{
		mkOp(OpInsert, 5, 1, 0, true, 1, 2),
		mkOp(OpUpdate, 5, 2, 0, true, 3, 4),
		mkOp(OpFind, 5, 0, 1, true, 5, 6), // observes overwritten value
	}
	if err := CheckOps(ops); err == nil {
		t.Fatal("stale find accepted")
	}
}

func TestDoubleInsertSuccessRejected(t *testing.T) {
	ops := []Op{
		mkOp(OpInsert, 5, 1, 0, true, 1, 2),
		mkOp(OpInsert, 5, 2, 0, true, 3, 4), // second success without delete
	}
	if err := CheckOps(ops); err == nil {
		t.Fatal("double insert success accepted")
	}
}

func TestLostUpdateRejected(t *testing.T) {
	// Two sequential adds; the sum is missing one addend.
	ops := []Op{
		mkOp(OpAdd, 5, 5, 0, true, 1, 2),
		mkOp(OpAdd, 5, 3, 0, false, 3, 4),
		mkOp(OpAdd, 5, 2, 0, false, 5, 6),
		mkOp(OpFind, 5, 0, 7, true, 7, 8), // 5+3+2 = 10, not 7
	}
	if err := CheckOps(ops); err == nil {
		t.Fatal("lost add accepted")
	}
}

func TestIncompleteOpRejected(t *testing.T) {
	ops := []Op{mkOp(OpInsert, 1, 1, 0, true, 1, 0)}
	if err := CheckOps(ops); err == nil {
		t.Fatal("incomplete op accepted")
	}
}

// --- Self-test: the checker catches a deliberately seeded protocol bug ---

// buggyTable reproduces, in miniature and deterministically, the exact bug
// family the torture harness exists to catch: a migration that copies
// cells without marking them first (the paper's §5.3.2 protocol with the
// mark omitted), so a writer racing the copy can have its update silently
// overwritten by the migrated copy of the old value.
type buggyTable struct {
	mu  sync.Mutex
	cur map[uint64]uint64
}

func newBuggyTable() *buggyTable { return &buggyTable{cur: map[uint64]uint64{}} }

func (b *buggyTable) get(k uint64) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.cur[k]
	return v, ok
}

func (b *buggyTable) put(k, v uint64) {
	b.mu.Lock()
	b.cur[k] = v
	b.mu.Unlock()
}

func (b *buggyTable) del(k uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.cur[k]
	delete(b.cur, k)
	return ok
}

// migrateWithoutMarking snapshots the table (the unmarked "copy"), lets
// the caller run racing writes via the barrier channels, then installs the
// snapshot — clobbering whatever the racing writes changed.
func (b *buggyTable) migrateWithoutMarking(copied, installed chan struct{}) {
	b.mu.Lock()
	snap := make(map[uint64]uint64, len(b.cur))
	for k, v := range b.cur {
		snap[k] = v
	}
	b.mu.Unlock()
	close(copied) // snapshot taken; racing writers may now run
	<-installed   // wait until the racing write has completed
	b.mu.Lock()
	b.cur = snap // install the stale copy: the racing write is lost
	b.mu.Unlock()
}

func TestCheckerCatchesSeededMigrationBug(t *testing.T) {
	b := newBuggyTable()
	h := NewHistory()

	// Seed the table.
	r0 := h.Recorder()
	i := r0.Invoke(OpInsert, 1, 100)
	b.put(1, 100)
	r0.Return(i, 0, true)

	copied := make(chan struct{})
	installed := make(chan struct{})
	done := make(chan struct{})

	// Writer: deletes key 1 strictly between the migration's copy and its
	// install — a real interleaving of the unmarked protocol.
	go func() {
		defer close(done)
		r := h.Recorder()
		<-copied
		i := r.Invoke(OpDelete, 1, 0)
		ok := b.del(1)
		r.Return(i, 0, ok)
		close(installed)
	}()

	b.migrateWithoutMarking(copied, installed)
	<-done

	// Post-migration read observes the resurrected value.
	i = r0.Invoke(OpFind, 1, 0)
	v, ok := b.get(1)
	r0.Return(i, v, ok)

	err := h.Check()
	if err == nil {
		t.Fatal("checker failed to catch the seeded unmarked-migration bug (lost delete)")
	}
	t.Logf("checker correctly rejected the seeded bug:\n%v", err)
}

// --- Soundness under real concurrency: a correct table must pass ---

// lockedMap is a trivially linearizable table (one mutex around every op).
type lockedMap struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func TestConcurrentCorrectTableAccepted(t *testing.T) {
	lm := &lockedMap{m: map[uint64]uint64{}}
	h := NewHistory()
	const goroutines = 8
	const opsPerG = 400
	const keys = 16 // few keys → heavy per-key contention → hard histories
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := h.Recorder()
			rnd := rand.New(rand.NewSource(seed))
			for n := 0; n < opsPerG; n++ {
				k := uint64(rnd.Intn(keys)) + 1
				v := uint64(rnd.Intn(1000)) + 1
				switch rnd.Intn(6) {
				case 0:
					i := r.Invoke(OpInsert, k, v)
					lm.mu.Lock()
					_, present := lm.m[k]
					if !present {
						lm.m[k] = v
					}
					lm.mu.Unlock()
					r.Return(i, 0, !present)
				case 1:
					i := r.Invoke(OpDelete, k, 0)
					lm.mu.Lock()
					_, present := lm.m[k]
					delete(lm.m, k)
					lm.mu.Unlock()
					r.Return(i, 0, present)
				case 2:
					i := r.Invoke(OpUpdate, k, v)
					lm.mu.Lock()
					_, present := lm.m[k]
					if present {
						lm.m[k] = v
					}
					lm.mu.Unlock()
					r.Return(i, 0, present)
				case 3:
					i := r.Invoke(OpUpsert, k, v)
					lm.mu.Lock()
					_, present := lm.m[k]
					lm.m[k] = v
					lm.mu.Unlock()
					r.Return(i, 0, !present)
				case 4:
					i := r.Invoke(OpAdd, k, v)
					lm.mu.Lock()
					old, present := lm.m[k]
					if present {
						lm.m[k] = old + v
					} else {
						lm.m[k] = v
					}
					lm.mu.Unlock()
					r.Return(i, 0, !present)
				case 5:
					i := r.Invoke(OpFind, k, 0)
					lm.mu.Lock()
					out, present := lm.m[k]
					lm.mu.Unlock()
					r.Return(i, out, present)
				}
			}
		}(int64(g * 7919))
	}
	wg.Wait()
	if err := h.Check(); err != nil {
		t.Fatalf("correct concurrent table rejected: %v", err)
	}
}

// TestCheckerPerKeyPartition: violations on one key are reported even when
// thousands of ops on other keys are fine.
func TestCheckerPerKeyPartition(t *testing.T) {
	var ops []Op
	tick := int64(1)
	for k := uint64(1); k <= 200; k++ {
		ops = append(ops, mkOp(OpInsert, k, k, 0, true, tick, tick+1))
		tick += 2
		ops = append(ops, mkOp(OpFind, k, 0, k, true, tick, tick+1))
		tick += 2
	}
	// One poisoned key.
	ops = append(ops, mkOp(OpFind, 999, 0, 1, true, tick, tick+1))
	if err := CheckOps(ops); err == nil {
		t.Fatal("poisoned key accepted")
	}
	if err := CheckOps(ops[:len(ops)-1]); err != nil {
		t.Fatalf("clean multi-key history rejected: %v", err)
	}
}
