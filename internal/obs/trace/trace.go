// Package trace is the always-on flight recorder: a sharded, lock-free
// ring of fixed-size binary event records that the hot paths append to
// without allocating and a drain API that snapshots the recent past in
// time-merged order.
//
// Aggregate metrics (internal/obs) can bound tail behavior — a p99
// migration pause, a probe-length knee — but cannot explain a single
// slow operation. The recorder keeps the raw event stream the paper's
// pause analysis needs: every executed request, every migration phase
// transition, every sweep slice, cheap enough to leave on in
// production. Events overwrite oldest-first; the ring is a window onto
// the recent past, not a log.
//
// Concurrency design: each shard is a power-of-two slot array with a
// cache-line-padded ticket cursor (fetch-and-add claims a slot; no
// CAS loops, writers never wait). Each slot is a per-slot seqlock of
// six atomic words — sequence, timestamp, kind, and three arguments.
// A writer stores seq=2·ticket+1 (odd: write in progress), then the
// payload, then seq=2·ticket+2 (even: complete). A reader accepts a
// slot only when the sequence is even, nonzero, and unchanged across
// the payload reads, so drained records are never torn; every access
// is atomic, so the scheme is race-detector clean. A writer takes its
// slot by compare-and-swapping an even sequence to its odd one: under
// extreme wraparound contention, a writer that finds the slot held by
// another a full ring apart drops its event rather than interleave
// payload stores with it, which a reader could not tell from a whole
// record. A late writer can still replace a newer record with an older
// one; Drain sorts by timestamp, so the merged view stays ordered.
package trace

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/pad"
)

// Kind identifies what a trace event records. Kind zero is reserved:
// a slot whose kind would be zero has never been written, so decoders
// can treat it as empty without a separate occupancy bitmap.
type Kind uint8

// The event kinds, one per instrumented transition. Arguments are
// positional (A0..A2); the per-kind conventions are:
//
//	ExecEnd     A0=opcode|status<<8  A1=request id  A2=latency nanos (start = TS-A2)
//	Enqueue     A0=first request id  A1=bytes the batch-end flush writes  A2=frames in the batch
//	MigArm      A0=src capacity  A1=dst capacity  A2=unused
//	MigAdopt    A0=total blocks  A1=blocks done  A2=unused
//	MigCopySlice A0=block index  A1=cells moved  A2=unused
//	MigDrain    A0=handles drained  A1,A2=unused
//	MigFlip     A0=cells moved  A1=new generation  A2=unused
//	MigAbort    A0=src capacity  A1,A2=unused
//	SweepSlice  A0=entries visited  A1=entries removed  A2=unused
//	EvictStorm  A0=entries evicted (> 1: one write's eviction run)  A1=approx size  A2=entry budget
//
//growt:enum tracekind
const (
	KindExecEnd Kind = 1 + iota
	KindEnqueue
	KindMigArm
	KindMigAdopt
	KindMigCopySlice
	KindMigDrain
	KindMigFlip
	KindMigAbort
	KindSweepSlice
	KindEvictStorm
)

// KindName returns the wire/JSON name of a kind, or "" for values
// outside the enum (including the reserved zero).
func KindName(k Kind) string {
	switch k {
	case KindExecEnd:
		return "exec_end"
	case KindEnqueue:
		return "enqueue"
	case KindMigArm:
		return "mig_arm"
	case KindMigAdopt:
		return "mig_adopt"
	case KindMigCopySlice:
		return "mig_copy_slice"
	case KindMigDrain:
		return "mig_drain"
	case KindMigFlip:
		return "mig_flip"
	case KindMigAbort:
		return "mig_abort"
	case KindSweepSlice:
		return "sweep_slice"
	case KindEvictStorm:
		return "evict_storm"
	}
	return ""
}

// Event is one drained record: the fixed 1+3-word payload plus the
// monotonic timestamp it was appended at (nanoseconds on the same
// clock for every shard, so cross-shard ordering is meaningful).
type Event struct {
	TS   int64  `json:"ts_nanos"`
	Kind Kind   `json:"-"`
	A0   uint64 `json:"a0"`
	A1   uint64 `json:"a1"`
	A2   uint64 `json:"a2"`
}

// The monotonic clock base. time.Since(base) reads the runtime's
// monotonic clock without allocating; adding the wall base keeps
// drained timestamps meaningful across processes.
var (
	base      = time.Now()
	baseNanos = base.UnixNano()
)

// nowNanos is the recorder's clock: wall nanos derived from the
// monotonic clock, so it never jumps backward under NTP steps.
//
//growt:hotpath
func nowNanos() int64 {
	return baseNanos + int64(time.Since(base))
}

// slot is one seqlock-protected record. All six words are atomics:
// the race detector sees only synchronized accesses, and the seq
// protocol (odd while writing, even and ticket-derived when complete)
// lets readers reject torn payloads.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Uint64
	kind atomic.Uint64
	a0   atomic.Uint64
	a1   atomic.Uint64
	a2   atomic.Uint64
}

// shard is one writer lane: a padded ticket cursor (the only
// cross-writer contention point, alone on its cache line) and the
// slot array it deals into.
type shard struct {
	cursor pad.Uint64
	slots  []slot
}

// Ring is the flight recorder: one shard per (rounded-up) GOMAXPROCS
// lane, each sized to perShard slots. Total capacity is
// shards×perShard events; older events are overwritten in ticket
// order within each shard.
type Ring struct {
	shards []shard
	mask   uint64
}

// DefaultPerShard is the per-shard slot count of the package-level
// ring. 4096 events per lane costs ~200 KiB per lane (48-byte slots)
// and holds a few hundred milliseconds of history at full service
// load — enough that a migration's phase events survive the burst of
// exec events recorded alongside them, which is the whole point of a
// merged window.
const DefaultPerShard = 4096

// Default is the package-level recorder the instrumented layers emit
// into. Sized at init; always on.
var Default = NewRing(DefaultPerShard)

// NewRing builds a recorder with perShard slots per shard (rounded up
// to a power of two, minimum 64). The shard count is the smallest
// power of two ≥ GOMAXPROCS at call time.
func NewRing(perShard int) *Ring {
	n := 64
	for n < perShard {
		n <<= 1
	}
	sc := ceilPow2(runtime.GOMAXPROCS(0))
	r := &Ring{shards: make([]shard, sc), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, n)
	}
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIdx picks a shard from the address of a stack local, exactly
// like obs.Counter: distinct goroutines live on distinct stacks, the
// Fibonacci multiplier spreads the high bits, and the single-expression
// pointer→uintptr conversion keeps the local from escaping.
//
//growt:hotpath
func (r *Ring) shardIdx() uint64 {
	var p byte
	return (uint64(uintptr(unsafe.Pointer(&p))) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(r.shards)-1)
}

// Append records one event stamped now. Allocation-free and
// wait-free: one fetch-and-add on the shard cursor, a compare-and-swap
// on the slot's sequence and six atomic stores.
//
//growt:hotpath
func (r *Ring) Append(k Kind, a0, a1, a2 uint64) {
	r.AppendAt(nowNanos(), k, a0, a1, a2)
}

// AppendAt records one event stamped ts, a reading of Now the caller
// already holds, so the ring reads no clock of its own.
//
//growt:hotpath
func (r *Ring) AppendAt(ts int64, k Kind, a0, a1, a2 uint64) {
	sh := &r.shards[r.shardIdx()]
	ticket := sh.cursor.Add(1) - 1
	s := &sh.slots[ticket&r.mask]
	if old := s.seq.Load(); old&1 == 1 || !s.seq.CompareAndSwap(old, 2*ticket+1) {
		return // another writer holds the slot
	}
	s.ts.Store(uint64(ts))
	s.kind.Store(uint64(k))
	s.a0.Store(a0)
	s.a1.Store(a1)
	s.a2.Store(a2)
	s.seq.Store(2*ticket + 2)
}

// Emit appends to the package-level Default ring.
//
//growt:hotpath
func Emit(k Kind, a0, a1, a2 uint64) {
	Default.Append(k, a0, a1, a2)
}

// EmitAt appends to the package-level Default ring at ts, a reading
// of Now.
//
//growt:hotpath
func EmitAt(ts int64, k Kind, a0, a1, a2 uint64) {
	Default.AppendAt(ts, k, a0, a1, a2)
}

// Now returns the recorder's clock reading; it reads the monotonic
// clock only. Instrumented layers that stamp their own records (the
// server's slow-op log, EmitAt callers) use it so their timestamps
// interleave exactly with drained trace events.
//
//growt:hotpath
func Now() int64 { return nowNanos() }

// Drain snapshots every complete record currently in the ring, merged
// across shards into ascending timestamp order. It is a cold-path
// read: it allocates freely and tolerates concurrent writers — a slot
// overwritten mid-read fails its seqlock validation and is skipped,
// never returned torn. The ring is not cleared; Drain is a window
// read, not a consume.
func (r *Ring) Drain() []Event {
	out := make([]Event, 0, len(r.shards)*16)
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			s := &sh.slots[j]
			seq1 := s.seq.Load()
			if seq1 == 0 || seq1&1 == 1 {
				continue // never written, or write in progress
			}
			ev := Event{
				TS:   int64(s.ts.Load()),
				Kind: Kind(s.kind.Load()),
				A0:   s.a0.Load(),
				A1:   s.a1.Load(),
				A2:   s.a2.Load(),
			}
			if s.seq.Load() != seq1 {
				continue // overwritten while reading: torn, drop
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}

// jsonEvent is the rendered form: the kind travels as its name so the
// stream is greppable without the enum table.
type jsonEvent struct {
	TS   int64  `json:"ts_nanos"`
	Kind string `json:"kind"`
	A0   uint64 `json:"a0"`
	A1   uint64 `json:"a1"`
	A2   uint64 `json:"a2"`
}

// WriteJSON renders events (as returned by Drain) as a JSON array of
// {ts_nanos, kind, a0, a1, a2} objects. Events whose kind falls
// outside the enum render with an empty kind rather than being
// dropped — a corrupt record is evidence, not noise.
func WriteJSON(w io.Writer, evs []Event) error {
	js := make([]jsonEvent, len(evs))
	for i, e := range evs {
		js[i] = jsonEvent{TS: e.TS, Kind: KindName(e.Kind), A0: e.A0, A1: e.A1, A2: e.A2}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(js)
}
