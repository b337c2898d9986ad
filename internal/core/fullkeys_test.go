package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tables"
)

func newFull() *FullKeys {
	return NewFullKeys(func() tables.Interface { return NewGrow(UA, 64) })
}

// TestFullKeysReservedPatterns: every key the core reserves must work
// through the wrapper, including 0, the frozen pattern, the pending bit
// and all-ones.
func TestFullKeysReservedPatterns(t *testing.T) {
	f := newFull()
	defer f.Close()
	h := f.Handle()
	keys := []uint64{
		0,
		frozenKey,         // 2^63-1
		frozenKey | 1<<63, // all ones
		1 << 63,           // only top bit
		(1 << 63) | 12345, // high half-space ordinary
		42,                // low half-space ordinary
		MaxKey, MaxKey | 1<<63,
	}
	for i, k := range keys {
		if !h.Insert(k, uint64(i)+1) {
			t.Fatalf("insert %#x failed", k)
		}
	}
	for i, k := range keys {
		if v, ok := h.Find(k); !ok || v != uint64(i)+1 {
			t.Fatalf("find %#x: got %d,%v", k, v, ok)
		}
	}
	for _, k := range keys {
		if h.Insert(k, 9) {
			t.Fatalf("duplicate insert %#x succeeded", k)
		}
	}
	// The four reserved-pattern keys live in exactly-counted special
	// slots; subtable counts may lag by the unflushed local counters.
	if n := f.ApproxSize(); n < 4 || n > uint64(len(keys)) {
		t.Fatalf("approx size %d", n)
	}
	for _, k := range keys {
		if !h.Delete(k) {
			t.Fatalf("delete %#x failed", k)
		}
		if _, ok := h.Find(k); ok {
			t.Fatalf("key %#x present after delete", k)
		}
	}
}

// TestFullKeysHalfSpacesIndependent: the same 63-bit pattern in both
// half-spaces must address distinct elements.
func TestFullKeysHalfSpacesIndependent(t *testing.T) {
	f := newFull()
	defer f.Close()
	h := f.Handle()
	h.Insert(7, 100)
	h.Insert(7|1<<63, 200)
	if v, _ := h.Find(7); v != 100 {
		t.Fatal("low half-space damaged")
	}
	if v, _ := h.Find(7 | 1<<63); v != 200 {
		t.Fatal("high half-space damaged")
	}
	h.Delete(7)
	if _, ok := h.Find(7 | 1<<63); !ok {
		t.Fatal("delete crossed half-spaces")
	}
}

// TestFullKeysQuickModel: differential test over the full 64-bit domain.
func TestFullKeysQuickModel(t *testing.T) {
	f := func(ops []modelOp, topBits []bool) bool {
		fk := newFull()
		defer fk.Close()
		h := fk.Handle()
		model := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op.Key)
			if i < len(topBits) && topBits[i] {
				k |= 1 << 63
			}
			v := uint64(op.Val) + 1
			switch op.Kind % 4 {
			case 0:
				_, present := model[k]
				if h.Insert(k, v) == present {
					t.Fatalf("insert(%#x) mismatch", k)
				}
				if !present {
					model[k] = v
				}
			case 1:
				want, present := model[k]
				got, ok := h.Find(k)
				if ok != present || (ok && got != want) {
					t.Fatalf("find(%#x) mismatch", k)
				}
			case 2:
				_, present := model[k]
				if h.InsertOrUpdate(k, v, tables.AddFn) == present {
					t.Fatalf("upsert(%#x) mismatch", k)
				}
				if present {
					model[k] += v
				} else {
					model[k] = v
				}
			case 3:
				_, present := model[k]
				if h.Delete(k) != present {
					t.Fatalf("delete(%#x) mismatch", k)
				}
				delete(model, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// bareTable is a table whose handles are a tables.Handle and nothing
// more: no atomic conditional or value-reporting delete.
type bareTable struct{}

type bareHandle struct{ tables.Handle }

func (bareTable) Handle() tables.Handle { return bareHandle{} }

// TestFullKeysRefusesBareSubtable: the wrapper's CompareAndDelete and
// LoadAndDelete are atomic only as its subtables' own, so a subtable
// without them is refused outright, by name, and not emulated with a
// find-then-delete.
func TestFullKeysRefusesBareSubtable(t *testing.T) {
	f := NewFullKeys(func() tables.Interface { return bareTable{} })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "core.bareTable") {
			t.Fatalf("Handle over a table without CompareAndDelete and LoadAndDelete: recovered %q, want a panic naming core.bareTable", msg)
		}
	}()
	f.Handle()
}
