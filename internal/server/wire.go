// Package server is the network service layer over the typed map: a
// compact length-prefixed binary protocol (GET/SET/DEL/CAS/INCR/SIZE,
// request ids, pipelining) served by one goroutine per connection that
// executes each batch of buffered requests and flushes their responses
// with one write. It is what turns the paper's in-process throughput
// numbers into end-to-end serving numbers — the protocol is built so
// that clients can keep many requests in flight per connection,
// amortizing syscall and wakeup cost over whole batches of operations
// instead of paying it per op.
//
// The wire format is specified in docs/PROTOCOL.md. Every frame is
//
//	len:u32 | id:u64 | kind:u8 | body
//
// with all integers big-endian; len counts the bytes after the length
// field itself. On a request, kind is the opcode; on a response it is
// the status. Responses to one connection's requests come back in
// request order, each echoing the request id.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// DefaultAddr is the address growd listens on when none is given.
const DefaultAddr = ":7420"

// Request opcodes. The group is a //growt:enum: growvet's statusswitch
// analyzer requires every switch over opcodes — server dispatch and
// client alike — to handle all of them or declare an explicit default,
// so adding an opcode here cannot silently fall through on one side.
//
//growt:enum opcode
const (
	OpPing byte = 0x01 // liveness probe ("healthz"); empty body
	OpGet  byte = 0x02 // key -> value
	OpSet  byte = 0x03 // key value -> store with the server's default TTL
	OpDel  byte = 0x04 // key -> remove
	OpCAS  byte = 0x05 // key old new -> swap iff current == old
	OpIncr byte = 0x06 // key delta:u64 -> add to an 8-byte counter value
	OpSize byte = 0x07 // -> approximate element count

	// Cache opcodes (PR 5): per-entry TTL and batched access.
	OpSetEx  byte = 0x08 // key value ttlms:u64 -> store with explicit TTL
	OpExpire byte = 0x09 // key ttlms:u64 -> re-deadline a live key
	OpTTL    byte = 0x0A // key -> remaining TTL in ms (TTLImmortal = none)
	OpMGet   byte = 0x0B // n:u32, n × key -> batched GET, per-key found flag
	OpMSet   byte = 0x0C // n:u32, n × (key value) -> batched default-TTL SET

	// Observability opcode (PR 9): scrape the server's obs registry —
	// counters, gauges, latency histograms — over the data protocol
	// itself, so a load generator needs no side-channel HTTP scrape.
	OpStats byte = 0x0D // -> JSON-encoded obs.Snapshot

	// Observability opcode (PR 10): scrape the server's slow-op log —
	// every recent request over the latency threshold, stamped with the
	// opcode, key hash, queue depth, and table generation it ran
	// against — over the data protocol, like STATS.
	OpSlowLog byte = 0x0E // -> JSON array of SlowEntry
)

// OpName maps an opcode to its lowercase wire name ("" for unknown
// bytes). The switch covers the //growt:enum with no default, so
// statusswitch fails the build when an opcode is added but not named —
// and everything per-opcode in the server (metric series, the Stats
// per-op map) is derived from this function, which is what makes
// "thirteen parallel struct fields drifting from the enum" structurally
// impossible.
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "ping"
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDel:
		return "del"
	case OpCAS:
		return "cas"
	case OpIncr:
		return "incr"
	case OpSize:
		return "size"
	case OpSetEx:
		return "setex"
	case OpExpire:
		return "expire"
	case OpTTL:
		return "ttl"
	case OpMGet:
		return "mget"
	case OpMSet:
		return "mset"
	case OpStats:
		return "stats"
	case OpSlowLog:
		return "slowlog"
	}
	return ""
}

// TTLImmortal is the TTL response payload for a live entry with no
// deadline (stored without a TTL on a server with no default TTL).
const TTLImmortal = ^uint64(0)

// Response statuses. A //growt:enum like the opcodes: switches over
// response statuses must be exhaustive or carry a default.
//
//growt:enum wirestatus
const (
	StatusOK       byte = 0x00
	StatusNotFound byte = 0x01 // GET/DEL/CAS: key absent
	StatusMismatch byte = 0x02 // CAS: key present with a different value
	StatusErr      byte = 0x03 // protocol or operation error; body = message
)

// frameHeader is the fixed part after the length field: id (8) + kind (1).
const frameHeader = 8 + 1

// DefaultMaxFrame caps a single frame (1 MiB). A peer announcing a
// larger frame is rejected before any of it is read, so a corrupt or
// hostile length field cannot make the reader allocate unboundedly.
const DefaultMaxFrame = 1 << 20

// ErrFrameTooLarge reports a frame whose announced length exceeds the
// configured cap. Terminal for the connection: framing cannot resync.
var ErrFrameTooLarge = errors.New("frame exceeds size limit")

// ErrMalformed reports a frame too short to carry the id and kind, or a
// body that does not parse under its opcode. Terminal for the connection.
var ErrMalformed = errors.New("malformed frame")

// BeginFrame starts a frame in dst: it reserves the length field and
// writes id and kind. Body fields are appended by the caller; EndFrame
// patches the length. The returned slice must stay the one passed to
// EndFrame (append chains are fine, re-slicing from the front is not).
func BeginFrame(dst []byte, id uint64, kind byte) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, kind)
}

// EndFrame patches the length field of the frame begun at offset start
// (the value of len(dst) before BeginFrame appended to it).
func EndFrame(frame []byte, start int) []byte {
	binary.BigEndian.PutUint32(frame[start:], uint32(len(frame)-start-4))
	return frame
}

// AppendBytes appends a length-prefixed byte string body field.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendUint64 appends a fixed 8-byte body field.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendUint32 appends a fixed 4-byte body field (batch counts).
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// ReadFrame reads one frame from r into buf (grown as needed) and
// returns the id, kind, and body. The body aliases the returned buffer:
// it is valid until the next ReadFrame call with the same buf. io.EOF is
// returned untouched on a clean close before any byte of a frame;
// mid-frame closes surface as io.ErrUnexpectedEOF. The length word is
// read into buf too: a local array would escape through r and cost an
// allocation per frame.
func ReadFrame(r io.Reader, max uint32, buf []byte) (id uint64, kind byte, body, nbuf []byte, err error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n < frameHeader {
		return 0, 0, nil, buf, ErrMalformed
	}
	if n > max {
		return 0, 0, nil, buf, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, buf, err
	}
	id = binary.BigEndian.Uint64(buf)
	return id, buf[8], buf[frameHeader:], buf, nil
}

// body is the cursor used to parse frame bodies. Parse failures are
// sticky: once bad, every further read reports bad.
type body struct {
	b   []byte
	bad bool
}

// bytesField consumes a length-prefixed byte string.
func (p *body) bytesField() []byte {
	if p.bad || len(p.b) < 4 {
		p.bad = true
		return nil
	}
	n := binary.BigEndian.Uint32(p.b)
	if uint32(len(p.b)-4) < n {
		p.bad = true
		return nil
	}
	f := p.b[4 : 4+n]
	p.b = p.b[4+n:]
	return f
}

// uint64Field consumes a fixed 8-byte integer.
func (p *body) uint64Field() uint64 {
	if p.bad || len(p.b) < 8 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(p.b)
	p.b = p.b[8:]
	return v
}

// uint32Field consumes a fixed 4-byte integer (batch counts).
func (p *body) uint32Field() uint32 {
	if p.bad || len(p.b) < 4 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(p.b)
	p.b = p.b[4:]
	return v
}

// done reports whether the whole body parsed with nothing left over.
func (p *body) done() bool { return !p.bad && len(p.b) == 0 }
