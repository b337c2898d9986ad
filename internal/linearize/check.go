package linearize

import (
	"fmt"
	"sort"
	"strings"
)

// kstate is the sequential specification's per-key state.
type kstate struct {
	present bool
	val     uint64
}

// step applies op to s and reports whether op's recorded result is legal
// at this linearization point, returning the successor state.
func step(s kstate, op Op) (kstate, bool) {
	switch op.Kind {
	case OpInsert:
		if s.present {
			return s, !op.Ok // refused insert: state unchanged
		}
		if !op.Ok {
			return s, false // insert into absent key must succeed
		}
		return kstate{true, op.Val}, true
	case OpDelete:
		if !s.present {
			return s, !op.Ok
		}
		if !op.Ok {
			return s, false
		}
		return kstate{}, true
	case OpUpdate:
		if !s.present {
			return s, !op.Ok
		}
		if !op.Ok {
			return s, false
		}
		return kstate{true, op.Val}, true
	case OpUpsert:
		if op.Ok != !s.present {
			return s, false // Ok must report "inserted"
		}
		return kstate{true, op.Val}, true
	case OpAdd:
		if op.Ok != !s.present {
			return s, false
		}
		if s.present {
			return kstate{true, s.val + op.Val}, true
		}
		return kstate{true, op.Val}, true
	case OpFind:
		if op.Ok != s.present {
			return s, false
		}
		if s.present && op.Out != s.val {
			return s, false
		}
		return s, true
	case OpLoadAndDelete:
		if op.Ok != s.present || (s.present && op.Out != s.val) {
			return s, false
		}
		return kstate{}, true
	case OpCompareAndDelete:
		if op.Ok != (s.present && s.val == op.Val) {
			return s, false
		}
		if op.Ok {
			return kstate{}, true
		}
		return s, true
	}
	return s, false
}

// entry is one node of the time-ordered event list: a call event holding a
// pointer to its return event, or a return event (match == nil).
type entry struct {
	op         Op
	id         int    // index into the per-key op slice (call entries)
	match      *entry // call → its return; nil for return entries
	time       int64
	prev, next *entry
}

// makeEntries builds the interleaved call/return event list sorted by
// time and returns its head sentinel-free first element.
func makeEntries(ops []Op) *entry {
	events := make([]*entry, 0, 2*len(ops))
	for i, op := range ops {
		ret := &entry{op: op, id: i, time: op.End}
		call := &entry{op: op, id: i, match: ret, time: op.Start}
		events = append(events, call, ret)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].time < events[j].time })
	var head *entry
	var prev *entry
	for _, e := range events {
		e.prev = prev
		if prev != nil {
			prev.next = e
		} else {
			head = e
		}
		prev = e
	}
	return head
}

// lift removes a call entry and its return from the event list (the op has
// been tentatively linearized).
func lift(e *entry) {
	e.prev.next = e.next // a sentinel head guarantees e.prev != nil
	if e.next != nil {
		e.next.prev = e.prev
	}
	m := e.match
	m.prev.next = m.next
	if m.next != nil {
		m.next.prev = m.prev
	}
}

// unlift reverses lift during backtracking.
func unlift(e *entry) {
	m := e.match
	m.prev.next = m
	if m.next != nil {
		m.next.prev = m
	}
	e.prev.next = e
	if e.next != nil {
		e.next.prev = e
	}
}

// bitset is a fixed-capacity bit vector over op ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)     { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)   { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) clone() bitset { c := make(bitset, len(b)); copy(c, b); return c }
func (b bitset) equals(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) hashWith(s kstate) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, w := range b {
		h = (h ^ w) * 1099511628211
	}
	h = (h ^ s.val) * 1099511628211
	if s.present {
		h = (h ^ 1) * 1099511628211
	}
	return h
}

type cacheEntry struct {
	linearized bitset
	state      kstate
}

// checkKeyHistory runs the Wing–Gong search with Lowe's visited-state
// cache over one key's subhistory (Porcupine's algorithm structure).
func checkKeyHistory(key uint64, ops []Op) error {
	n := len(ops)
	if n == 0 {
		return nil
	}
	// Sentinel head so lift/unlift never touch a nil prev.
	sentinel := &entry{}
	sentinel.next = makeEntries(ops)
	sentinel.next.prev = sentinel

	state := kstate{}
	linearized := newBitset(n)
	cache := make(map[uint64][]cacheEntry)
	type frame struct {
		e     *entry
		state kstate
	}
	var calls []frame
	maxLinearized := 0

	seen := func(b bitset, s kstate) bool {
		h := b.hashWith(s)
		for _, ce := range cache[h] {
			if ce.state == s && ce.linearized.equals(b) {
				return true
			}
		}
		cache[h] = append(cache[h], cacheEntry{b.clone(), s})
		return false
	}

	// backtrack undoes the most recent tentative linearization and resumes
	// the scan just after it; reports false when nothing is left to undo
	// (the history is not linearizable).
	backtrack := func(e **entry) bool {
		if len(calls) == 0 {
			return false
		}
		f := calls[len(calls)-1]
		calls = calls[:len(calls)-1]
		state = f.state
		linearized.clear(f.e.id)
		unlift(f.e)
		*e = f.e.next
		return true
	}

	e := sentinel.next
	for sentinel.next != nil {
		if e != nil && e.match != nil {
			// Call event: try to linearize this op next.
			if ns, ok := step(state, e.op); ok {
				linearized.set(e.id)
				if !seen(linearized, ns) {
					calls = append(calls, frame{e, state})
					if len(calls) > maxLinearized {
						maxLinearized = len(calls)
					}
					state = ns
					lift(e)
					e = sentinel.next
					continue
				}
				linearized.clear(e.id)
			}
			e = e.next
			continue
		}
		// Reached a return event of an unlinearized op (nothing later may
		// linearize before it, and it could not be linearized itself), or
		// ran off the end of the remaining events: backtrack.
		if !backtrack(&e) {
			return nonLinearizableError(key, ops, maxLinearized)
		}
	}
	return nil
}

// nonLinearizableError formats a readable counterexample report.
func nonLinearizableError(key uint64, ops []Op, maxPrefix int) error {
	sorted := make([]Op, len(ops))
	copy(sorted, ops)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var b strings.Builder
	fmt.Fprintf(&b, "linearize: history for key %d is NOT linearizable (%d ops, longest linearizable prefix %d):\n",
		key, len(ops), maxPrefix)
	const maxShow = 48
	for i, op := range sorted {
		if i == maxShow {
			fmt.Fprintf(&b, "  ... %d more ops elided\n", len(sorted)-maxShow)
			break
		}
		fmt.Fprintf(&b, "  %v\n", op)
	}
	return fmt.Errorf("%s", b.String())
}
