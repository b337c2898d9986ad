package core

import (
	"testing"
	"time"

	"repro/internal/hashfn"
	"repro/internal/tables"
)

// White-box, deterministic tests of what claim and locate own alone (the
// cell.go package comment, invariants 3 and 4). Each sets up by hand the
// cell state a racing thread would leave behind; the torture suites only
// ever reach these states by chance.

var claimingOps = []struct {
	name string
	run  func(t *Table, k, d uint64) opStatus
}{
	{"insert", (*Table).insertCore},
	{"insertOrUpdate", func(t *Table, k, d uint64) opStatus { return t.insertOrUpdateCore(k, d, tables.Overwrite) }},
	{"insertOrAdd", (*Table).insertOrAddCore},
}

// locatingOps act on k's element, whose current value is cur.
var locatingOps = []struct {
	name string
	run  func(t *Table, k, cur uint64) opStatus
}{
	{"update", func(t *Table, k, _ uint64) opStatus { return t.updateCore(k, 1, tables.Overwrite) }},
	{"delete", func(t *Table, k, _ uint64) opStatus { _, st := t.deleteCore(k); return st }},
	{"compareAndDelete", func(t *Table, k, cur uint64) opStatus { return t.compareAndDeleteCore(k, cur) }},
}

// sameHome returns two distinct keys with the same home cell in t.
func sameHome(t *Table) (k, other, home uint64) {
	k = 1
	home = t.index(hashfn.Hash64(k))
	for other = 2; t.index(hashfn.Hash64(other)) != home; other++ {
	}
	return k, other, home
}

// within fails the test if f has not returned after a generous bound: an
// operation that spins on a pending bit nobody will clear must fail, not
// hang until the package timeout.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return: spinning on a pending key word", what)
	}
}

// A claim whose value CAS loses to a migration mark must leave its cell
// published, dead AND marked, and report statusMarked, so that probers,
// stabilize and the copy all agree the element is absent here.
func TestProtocolClaimMarkedMidClaim(t *testing.T) {
	for _, op := range claimingOps {
		t.Run(op.name, func(t *testing.T) {
			src := NewTable(8)
			k, _, i := sameHome(src)
			src.storeVal(i, markedBit) // stabilize's mark, landed before the claim

			if st := op.run(src, k, 7); st != statusMarked {
				t.Fatalf("status %d, want statusMarked (%d)", st, statusMarked)
			}
			if kw := src.loadKey(i); kw != k {
				t.Fatalf("key word %#x, want %#x published with no pending bit", kw, k)
			}
			if v := src.loadVal(i); v&markedBit == 0 || v&liveBit != 0 {
				t.Fatalf("value word %#x, want dead and marked", v)
			}
			if _, ok := src.findCore(k); ok {
				t.Fatal("findCore sees the element whose claim lost to the mark")
			}
			dst := NewTable(8)
			m := newMigration(src, dst, true, func(uint64) {})
			key, val, empty := m.stabilize(i)
			if empty || key != k || val&liveBit != 0 {
				t.Fatalf("stabilize = (%#x, %#x, empty=%v), want the dead cell of %#x", key, val, empty, k)
			}
			if _, moved := m.copyCluster(i); moved != 0 || dst.countLive() != 0 {
				t.Fatalf("copyCluster moved %d elements (dst holds %d), want none", moved, dst.countLive())
			}
		})
	}
}

// An in-flight insert of k itself has not linearized: update, delete and
// compare-and-delete report absent without waiting for it, and find
// misses.
func TestProtocolLocatePendingIsAbsent(t *testing.T) {
	for _, op := range locatingOps {
		t.Run(op.name, func(t *testing.T) {
			tab := NewTable(8)
			k, _, i := sameHome(tab)
			tab.storeKey(i, k|pendingBit)
			within(t, op.name, func() {
				if st := op.run(tab, k, 0); st != statusAbsent {
					t.Errorf("status %d, want statusAbsent (%d)", st, statusAbsent)
				}
			})
			if _, ok := tab.findCore(k); ok {
				t.Fatal("findCore sees a pending insert")
			}
			if kw, v := tab.loadKey(i), tab.loadVal(i); kw != k|pendingBit || v != 0 {
				t.Fatalf("cell changed to (%#x, %#x) by an operation that must not write", kw, v)
			}
		})
	}
}

// A cell held by another key — pending, or published, which is also what
// a lost claim race leaves behind — is walked over: the claiming
// operations and claim itself take the next cell, and the locating
// operations and find reach k's element behind it.
func TestProtocolForeignCellWalkedOver(t *testing.T) {
	for _, foreign := range []struct {
		name  string
		place func(t *Table, i, other uint64)
	}{
		{"pending", func(t *Table, i, other uint64) { t.storeKey(i, other|pendingBit) }},
		{"published", func(t *Table, i, other uint64) { t.storeVal(i, 9|liveBit); t.storeKey(i, other) }},
	} {
		setup := func() (tab *Table, k, next uint64) {
			tab = NewTable(8)
			k, other, home := sameHome(tab)
			foreign.place(tab, home, other)
			return tab, k, (home + 1) & (tab.capacity - 1)
		}
		landed := func(t *testing.T, tab *Table, k, next uint64) {
			t.Helper()
			if kw := tab.loadKey(next); kw != k {
				t.Fatalf("cell after the foreign one holds %#x, want %#x", kw, k)
			}
			if v, ok := tab.findCore(k); !ok || v != 7 {
				t.Fatalf("findCore = (%d, %v), want (7, true)", v, ok)
			}
		}
		t.Run(foreign.name+"/claim", func(t *testing.T) {
			tab, k, next := setup()
			within(t, "claim", func() {
				if i, st := tab.claim(k, 7); i != next || st != statusInserted {
					t.Errorf("claim = (%d, %d), want (%d, statusInserted)", i, st, next)
				}
			})
			landed(t, tab, k, next)
		})
		for _, op := range claimingOps {
			t.Run(foreign.name+"/"+op.name, func(t *testing.T) {
				tab, k, next := setup()
				within(t, op.name, func() {
					if st := op.run(tab, k, 7); st != statusInserted {
						t.Errorf("status %d, want statusInserted (%d)", st, statusInserted)
					}
				})
				landed(t, tab, k, next)
			})
		}
		for _, op := range locatingOps {
			t.Run(foreign.name+"/"+op.name, func(t *testing.T) {
				tab, k, next := setup()
				tab.insertCore(k, 7)
				landed(t, tab, k, next)
				within(t, op.name, func() {
					if st := op.run(tab, k, 7); st != statusUpdated {
						t.Errorf("status %d, want statusUpdated (%d)", st, statusUpdated)
					}
				})
			})
		}
	}
}
