// Package linearize records concurrent operation histories against a hash
// table and decides whether they are linearizable with respect to the
// sequential map specification.
//
// # Why this exists
//
// The paper's central correctness claim (§5.3.2, "Marking Moved Elements")
// is that marking every cell before copying makes asynchronous migration
// lose no update. Assertions sprinkled through stress tests ("this insert
// must succeed") only catch violations that happen to trip the asserted
// op; a linearizability checker catches *any* lost or reordered effect,
// including ones only visible through a later find. The torture tests in
// internal/core drive the growing tables through forced migrations while
// every goroutine records its operations here, and the checker validates
// the full history afterwards.
//
// # Model
//
// A history is a set of operations, each with an invocation and a response
// timestamp drawn from one global atomic counter (a logical clock whose
// increments are themselves linearizable, so the recorded order is
// consistent with real time). The checked specification is the sequential
// map over uint64 keys: per-key state is either absent or present(value),
// and every operation's recorded return value must match the state at its
// linearization point.
//
// Because operations on distinct keys commute in the sequential map
// specification, a history is linearizable iff each per-key subhistory is
// linearizable (locality, Herlihy & Wing). The checker therefore
// partitions by key and runs a Wing–Gong style search per key with Lowe's
// memoization of visited (linearized-set, state) configurations — the same
// structure used by Porcupine and by Lowe's "Testing for linearizability".
//
// Recorders are goroutine-private (mirroring the paper's §5.1 handle
// design); History aggregates them at check time.
package linearize

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// OpKind identifies the table operation an Op records.
type OpKind uint8

const (
	// OpInsert: Insert(key, val) → Ok reports "newly inserted"
	// (false = key was already present; the table is unchanged).
	OpInsert OpKind = iota
	// OpDelete: Delete(key) → Ok reports "was present and is now deleted".
	OpDelete
	// OpUpdate: Update(key, val) with overwrite semantics → Ok reports
	// "was present and now holds val".
	OpUpdate
	// OpUpsert: InsertOrUpdate(key, val) with overwrite semantics →
	// Ok reports "inserted" (false = updated). Always takes effect.
	OpUpsert
	// OpAdd: InsertOrAdd(key, val) → Ok reports "inserted" (false =
	// val was added to the present value). Always takes effect.
	OpAdd
	// OpFind: Find(key) → (Out, Ok).
	OpFind
	// OpLoadAndDelete: a Delete whose Out must be the value it removed.
	OpLoadAndDelete
	// OpCompareAndDelete: CompareAndDelete(key, val) → Ok reports "held
	// val and is now deleted" (false = absent or a different value).
	OpCompareAndDelete
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "Insert"
	case OpDelete:
		return "Delete"
	case OpUpdate:
		return "Update"
	case OpUpsert:
		return "InsertOrUpdate"
	case OpAdd:
		return "InsertOrAdd"
	case OpFind:
		return "Find"
	case OpLoadAndDelete:
		return "LoadAndDelete"
	case OpCompareAndDelete:
		return "CompareAndDelete"
	}
	return "?"
}

// Op is one recorded operation. Start and End are ticks of the history's
// global clock: Start is taken immediately before the table call, End
// immediately after it returns, so [Start, End] covers the call's real-time
// extent. End == 0 marks an operation that never returned.
type Op struct {
	Kind  OpKind
	Key   uint64
	Val   uint64 // input value (insert/update/upsert/add)
	Out   uint64 // output value (find)
	Ok    bool
	Start int64
	End   int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpFind, OpLoadAndDelete:
		return fmt.Sprintf("[%d,%d] %s(%d) = (%d,%v)", o.Start, o.End, o.Kind, o.Key, o.Out, o.Ok)
	case OpDelete:
		return fmt.Sprintf("[%d,%d] Delete(%d) = %v", o.Start, o.End, o.Key, o.Ok)
	default:
		return fmt.Sprintf("[%d,%d] %s(%d,%d) = %v", o.Start, o.End, o.Kind, o.Key, o.Val, o.Ok)
	}
}

// History owns the global clock and aggregates per-goroutine recorders.
type History struct {
	clock atomic.Int64
	mu    sync.Mutex
	recs  []*Recorder
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Recorder returns a new goroutine-private recorder attached to h.
func (h *History) Recorder() *Recorder {
	r := &Recorder{h: h}
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
	return r
}

// Ops collects every recorded operation (call after all recorders are
// quiescent).
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	var ops []Op
	for _, r := range h.recs {
		ops = append(ops, r.ops...)
	}
	return ops
}

// Recorder records the operations of one goroutine. Not safe for
// concurrent use — create one per goroutine, like a table handle.
type Recorder struct {
	h   *History
	ops []Op
}

// Invoke records the invocation of an operation and returns its index for
// the matching Return call.
func (r *Recorder) Invoke(kind OpKind, key, val uint64) int {
	r.ops = append(r.ops, Op{
		Kind:  kind,
		Key:   key,
		Val:   val,
		Start: r.h.clock.Add(1),
	})
	return len(r.ops) - 1
}

// Return records the response of the operation at index i.
func (r *Recorder) Return(i int, out uint64, ok bool) {
	r.ops[i].Out = out
	r.ops[i].Ok = ok
	r.ops[i].End = r.h.clock.Add(1)
}

// Check reports whether the recorded history is linearizable; the error
// describes the first offending key otherwise.
func (h *History) Check() error { return CheckOps(h.Ops()) }

// CheckOps checks an explicit operation list (exported for hand-written
// histories in tests). Operations with End == 0 never returned; they are
// rejected — the recording harness must complete every call before
// checking.
func CheckOps(ops []Op) error {
	byKey := make(map[uint64][]Op)
	for _, op := range ops {
		if op.End == 0 {
			return fmt.Errorf("linearize: incomplete operation %v (End=0): complete every call before checking", op)
		}
		if op.End < op.Start {
			return fmt.Errorf("linearize: operation %v responds before it is invoked", op)
		}
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	// Deterministic key order so failures reproduce identically.
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := checkKeyHistory(k, byKey[k]); err != nil {
			return err
		}
	}
	return nil
}
