package core

import "repro/internal/tables"

// Resumable iteration (tables.CursorRanger) for the cell-protocol
// tables. A cursor is a generation-tagged slot index: resuming against
// the generation it was taken from continues exactly where the previous
// walk stopped; resuming after a migration retired that generation
// restarts from slot zero of the live generation. The restart may
// re-visit elements already seen but never skips a stable one — the
// guarantee the cache sweeper and other long walks rely on.

// cursorInto resumes a walk over t from cur, translating between the
// public cursor and the raw slot position.
func cursorInto(t *Table, cur tables.Cursor, fn func(k, v uint64) bool) (tables.Cursor, bool) {
	pos := uint64(0)
	if cur.Gen == t.gen {
		pos = cur.Pos
	}
	next, wrapped := t.rangeFromCore(pos, fn)
	return tables.Cursor{Gen: t.gen, Pos: next}, wrapped
}

// RangeFrom resumes iteration from cur (tables.CursorRanger); quiescent
// use only, like Range.
func (f *Folklore) RangeFrom(cur tables.Cursor, fn func(k, v uint64) bool) (tables.Cursor, bool) {
	return cursorInto(f.t, cur, fn)
}

// RangeFrom resumes iteration from cur against the current generation
// (tables.CursorRanger). A cursor taken before a migration carries the
// retired generation's id and restarts from slot zero of the new
// generation; quiescent use only, like Range.
func (g *Grow) RangeFrom(cur tables.Cursor, fn func(k, v uint64) bool) (tables.Cursor, bool) {
	return cursorInto(g.cur.Load(), cur, fn)
}

var _ tables.CursorRanger = (*Folklore)(nil)
var _ tables.CursorRanger = (*Grow)(nil)
