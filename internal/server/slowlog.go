package server

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/pad"
)

// The slow-op log: a bounded ring of the most recent requests whose
// execution latency crossed Options.SlowOpThreshold. Where the flight
// recorder answers "what was the system doing", the slow-op log
// answers "which requests paid for it": each entry carries the opcode,
// a hash of the key (the key itself may be megabytes; the hash is
// enough to correlate repeats and probe-cluster neighbors) and the
// table generation the op ran against — so a stalled SET can be matched to the exact migration
// (flip events carry the new generation) that stalled it.
//
// The ring uses the same per-slot seqlock as internal/obs/trace: a
// padded fetch-and-add cursor deals slots, writers bracket the payload
// with odd/even sequence stores, readers discard torn slots. Insert is
// //growt:hotpath — it runs on the request path (only for ops already
// slow, but a threshold set to 0 must not add allocation on top).

// slowLogSlots is the ring capacity. 256 entries ≈ minutes of history
// at sane thresholds; a threshold loose enough to overflow it faster
// is measuring the wrong thing.
const slowLogSlots = 256

// DefaultSlowOpThreshold is the latency floor for slow-op capture when
// Options.SlowOpThreshold is zero: 1ms is ~two orders of magnitude
// over a healthy uncontended op and comfortably under a migration
// stall on any table worth logging.
const DefaultSlowOpThreshold = time.Millisecond

// SlowEntry is one captured slow operation, shaped for the SLOWLOG
// JSON body.
type SlowEntry struct {
	TS           int64  `json:"ts_nanos"`
	Op           string `json:"op"`
	ID           uint64 `json:"id"`
	KeyHash      uint64 `json:"key_hash"`
	Generation   uint64 `json:"generation"`
	LatencyNanos uint64 `json:"latency_nanos"`
}

// slowSlot is one seqlock-protected record; all words atomic, so the
// scheme is race-detector clean (see internal/obs/trace for the
// protocol discussion).
type slowSlot struct {
	seq     atomic.Uint64
	ts      atomic.Uint64
	op      atomic.Uint64
	id      atomic.Uint64
	keyHash atomic.Uint64
	gen     atomic.Uint64
	lat     atomic.Uint64
}

type slowLog struct {
	cursor pad.Uint64
	slots  [slowLogSlots]slowSlot
}

// insert records one slow op. Allocation-free and wait-free: a
// fetch-and-add plus seven atomic stores.
//
//growt:hotpath
func (l *slowLog) insert(ts int64, op byte, id, keyHash, gen, lat uint64) {
	ticket := l.cursor.Add(1) - 1
	s := &l.slots[ticket&(slowLogSlots-1)]
	s.seq.Store(2*ticket + 1)
	s.ts.Store(uint64(ts))
	s.op.Store(uint64(op))
	s.id.Store(id)
	s.keyHash.Store(keyHash)
	s.gen.Store(gen)
	s.lat.Store(lat)
	s.seq.Store(2*ticket + 2)
}

// snapshot drains the complete entries in ascending timestamp order.
// Cold path (the SLOWLOG opcode and the SIGQUIT dump): allocates
// freely, skips torn slots, does not clear the ring.
func (l *slowLog) snapshot() []SlowEntry {
	out := make([]SlowEntry, 0, slowLogSlots)
	for i := range l.slots {
		s := &l.slots[i]
		seq1 := s.seq.Load()
		if seq1 == 0 || seq1&1 == 1 {
			continue
		}
		e := SlowEntry{
			TS:           int64(s.ts.Load()),
			Op:           OpName(byte(s.op.Load())),
			ID:           s.id.Load(),
			KeyHash:      s.keyHash.Load(),
			Generation:   s.gen.Load(),
			LatencyNanos: s.lat.Load(),
		}
		if s.seq.Load() != seq1 {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}

// keyOfRequest re-extracts the (first) key of a request body for
// slow-op attribution. Keyless ops and batch headers that fail to
// parse yield nil (hash 0); attribution is best-effort by design — the
// request already executed, this must not re-validate it.
func keyOfRequest(kind byte, reqBody []byte) []byte {
	p := body{b: reqBody}
	switch kind {
	case OpGet, OpSet, OpSetEx, OpExpire, OpTTL, OpDel, OpCAS, OpIncr:
		return p.bytesField()
	case OpMGet, OpMSet:
		if p.uint32Field() == 0 {
			return nil
		}
		return p.bytesField()
	default:
		return nil // ping/size/stats/slowlog carry no key
	}
}
