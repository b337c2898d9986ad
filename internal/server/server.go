package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/maphash"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Options tunes a Server. The zero value is ready to use.
type Options struct {
	// MaxFrame caps a single request frame; DefaultMaxFrame when 0.
	MaxFrame uint32
	// Obs is the metric registry the server registers into; a private
	// registry when nil. growd passes obs.Default so the server's
	// series share /metrics and the STATS opcode with the core and
	// cache layers; tests leave it nil and keep exact per-instance
	// counts.
	Obs *obs.Registry
	// SlowOpThreshold is the execution-latency floor above which a
	// request is captured into the slow-op log (served by the SLOWLOG
	// opcode). Zero means DefaultSlowOpThreshold; negative disables
	// capture entirely.
	SlowOpThreshold time.Duration
}

func (o *Options) defaults() {
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.SlowOpThreshold == 0 {
		o.SlowOpThreshold = DefaultSlowOpThreshold
	}
}

// Per-connection buffering, fixed for the connection's life. A batch is
// every request frame already whole in the read buffer once the
// blocking read of its first frame returns; its responses go straight
// into the write buffer, which flushes by itself when full, and the
// batch's end flushes the rest.
const (
	readBuffer  = 64 << 10
	writeBuffer = 64 << 10
)

// Stats is a snapshot of the server's counters. The hit/miss/expired/
// evicted block is sourced from the cache layer: hits and misses count
// GET/MGET outcomes, expired counts entries collected past their
// deadline (lazily or by the sweeper), evicted counts live entries
// removed to hold the -max-entries budget.
type Stats struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsActive   int64  `json:"conns_active"`
	Ops           uint64 `json:"ops"`
	// PerOp counts executed requests per opcode, keyed by wire name
	// (OpName). The key set is derived from the opcode enum at New, so
	// it tracks the protocol by construction — adding an opcode extends
	// this map without touching Stats.
	PerOp        map[string]uint64 `json:"per_op"`
	ProtocolErrs uint64            `json:"protocol_errs"`

	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Expired uint64 `json:"expired"`
	Evicted uint64 `json:"evicted"`
}

// metrics holds the server's obs instruments, registered once at New.
// The per-opcode arrays are indexed by raw opcode byte and populated
// for exactly the opcodes OpName knows — the enum is the single source
// of the per-op series set.
type metrics struct {
	reg           *obs.Registry
	connsAccepted *obs.Counter
	connsActive   *obs.Gauge
	ops           *obs.Counter
	protocolErrs  *obs.Counter
	opCount       [256]*obs.Counter
	opLat         [256]*obs.Hist
}

func newMetrics(reg *obs.Registry) metrics {
	m := metrics{
		reg:           reg,
		connsAccepted: reg.Counter("growd_conns_accepted_total"),
		connsActive:   reg.Gauge("growd_conns_active"),
		ops:           reg.Counter("growd_ops_total"),
		protocolErrs:  reg.Counter("growd_protocol_errs_total"),
	}
	for op := 0; op < 256; op++ {
		name := OpName(byte(op))
		if name == "" {
			continue
		}
		m.opCount[op] = reg.Counter("growd_op_total", "op", name)
		m.opLat[op] = reg.Hist("growd_op_nanos", "op", name)
	}
	return m
}

// Server serves the binary protocol over a Store. Each accepted
// connection gets a session: one goroutine that parses and executes the
// pipeline in order against the shared cache (which pools its own map
// handles — core handles register never-deregistered per-handle state,
// so they are recycled there, one per open connection) and writes the
// responses. It runs every frame already whole in its read buffer as one
// batch, appending each response straight into its buffered writer, and
// flushes once the batch ends — so a deep pipeline pays one syscall per
// flush, not per response, and a client that stops reading parks its
// session in a write with no more than the write buffer pending.
type Server struct {
	st  *Store
	opt Options

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	m    metrics
	slow slowLog
}

// New builds a server over st.
func New(st *Store, opt Options) *Server {
	opt.defaults()
	reg := opt.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		st:    st,
		opt:   opt,
		conns: make(map[net.Conn]struct{}),
		m:     newMetrics(reg),
	}
}

// Obs returns the registry the server records into (Options.Obs, or
// the private one New built) — the same registry the STATS opcode
// snapshots.
func (s *Server) Obs() *obs.Registry { return s.m.reg }

// SlowOps snapshots the slow-op log in ascending timestamp order — the
// same view the SLOWLOG opcode serializes; growd's SIGQUIT dump and
// tests read it directly.
func (s *Server) SlowOps() []SlowEntry { return s.slow.snapshot() }

// Stats snapshots the counters (tests and growd's shutdown log read
// it), merging the cache layer's hit/miss/expired/evicted block into
// the protocol-level counts. The per-op map is built from
// the opcode enum via the same OpName scan that registered the series.
func (s *Server) Stats() Stats {
	cs := s.st.C.Stats()
	perOp := make(map[string]uint64, len(s.m.opCount))
	for op := 0; op < 256; op++ {
		if c := s.m.opCount[op]; c != nil {
			perOp[OpName(byte(op))] = c.Value()
		}
	}
	return Stats{
		ConnsAccepted: s.m.connsAccepted.Value(),
		ConnsActive:   s.m.connsActive.Value(),
		Ops:           s.m.ops.Value(),
		PerOp:         perOp,
		ProtocolErrs:  s.m.protocolErrs.Value(),
		Hits:          cs.Hits,
		Misses:        cs.Misses,
		Expired:       cs.Expired,
		Evicted:       cs.Evicted,
	}
}

// Serve accepts connections on ln until Shutdown (returns nil) or a
// non-temporary accept error (returned).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	alreadyClosed := s.closed.Load()
	s.mu.Unlock()
	if alreadyClosed {
		// Shutdown ran before the listener was registered (it sets closed
		// before inspecting s.ln under the same lock, so exactly one side
		// sees the other): close it here or nobody will.
		ln.Close()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Registration and the closed flag are reconciled under one lock:
		// either this section sees closed and drops the conn, or Shutdown's
		// flag-setting section runs later and its sweep/Wait see the
		// registered session. Checking closed outside the lock could
		// register a session after Shutdown already reported fully drained.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		// Active before accepted: Stats reads accepted first, so a count
		// that includes this connection comes with its session's gauge.
		s.m.connsActive.Add(1)
		s.m.connsAccepted.Add(1)
		go s.session(conn)
	}
}

// Shutdown stops accepting, then waits for live sessions to drain. When
// ctx expires first, remaining connections are force-closed and
// ctx.Err() is returned after they unwind. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	// The flag is set under s.mu (see Serve's registration section): after
	// this section, no further session can register, and every registered
	// one is visible to the Wait and the force-close sweep below.
	s.mu.Lock()
	s.closed.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// session runs one connection's lifecycle on one goroutine: pipeline
// serves it until the client closes, a protocol error or a write error,
// then the conn is closed and untracked — the disconnect-mid-pipeline
// test drives every path.
func (s *Server) session(conn net.Conn) {
	defer s.wg.Done()
	s.pipeline(conn)
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.m.connsActive.Add(-1)
}

// pipeline parses and executes the request pipeline in order, a batch
// at a time, and writes the responses. A batch opens with a read that
// may block and goes on only while the read buffer holds the next frame
// whole (frameBuffered), so it never waits for bytes: an unpipelined
// request is a batch of one. exec appends each response into the write
// buffer's free space and bw.Write takes it from there in place; the
// batch's end flushes. It returns:
//
//   - at EOF or a read error, with nothing pending (a batch ends before
//     the read that could block);
//   - at a protocol error, after flushing the batch's responses so far
//     ending in a StatusErr response (terminal: framing cannot resync);
//   - at a write error, at once.
//
// Each op is timed by chained stamps: one after the batch's blocking
// read, one after every exec (and one after a write that had to flush),
// so an op's latency is the gap to the previous stamp — its own frame's
// decode and execution.
//
// The cache session is per-connection: one pooled map handle is pinned
// here for the connection's whole life, so the ops executed below never
// touch the handle pool. The pool makes a handle for every connection
// that is open at once; it has no cap for a connection to wait at.
//
//growt:hotpath
func (s *Server) pipeline(conn net.Conn) {
	cs := s.st.C.NewSession()
	defer cs.Close()
	br := bufio.NewReaderSize(conn, readBuffer)
	bw := bufio.NewWriterSize(conn, writeBuffer)
	var (
		frameBuf []byte // ReadFrame scratch, reused across frames
		first    uint64 // request id that opened the batch
		frames   uint64 // responses in the open batch; 0 between batches
		stamp    int64
	)
	for {
		id, kind, reqBody, nbuf, err := ReadFrame(br, s.opt.MaxFrame, frameBuf)
		frameBuf = nbuf
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrMalformed) {
				s.m.protocolErrs.Add(1)
				// Terminal; id is unknowable here (the frame could not be
				// parsed past its length), so echo 0.
				bw.Write(errFrame(bw.AvailableBuffer(), 0, err.Error()))
				s.flush(bw, first, frames+1)
			}
			return // EOF, connection reset, or terminal protocol error
		}
		if frames == 0 {
			first, stamp = id, trace.Now()
		}
		room := bw.AvailableBuffer()
		resp, fatal := s.exec(cs, room, id, kind, reqBody)
		frames++
		end := trace.Now()
		lat := uint64(end - stamp)
		stamp = end
		if h := s.m.opLat[kind]; h != nil {
			h.Observe(lat)
		}
		// The status byte sits after the length and id words; every
		// frame exec appends carries one.
		status := resp[4+frameHeader-1]
		trace.EmitAt(end, trace.KindExecEnd, uint64(kind)|uint64(status)<<8, id, lat)
		if thr := s.opt.SlowOpThreshold; thr > 0 && lat >= uint64(thr) {
			var kh uint64
			if key := keyOfRequest(kind, reqBody); len(key) > 0 {
				kh = maphash.Bytes(storeSeed, key)
			}
			s.slow.insert(end, kind, id, kh, s.st.C.Generation(), lat)
		}
		if _, err := bw.Write(resp); err != nil {
			return
		}
		if len(resp) > cap(room) {
			// The response outgrew the buffer's room, so the write flushed:
			// the next op's time starts after it.
			stamp = trace.Now()
		}
		if fatal {
			s.m.protocolErrs.Add(1)
			s.flush(bw, first, frames)
			return
		}
		if frameBuffered(br) {
			continue
		}
		if s.flush(bw, first, frames) != nil {
			return
		}
		first, frames = 0, 0
	}
}

// frameBuffered reports whether br already holds the next frame whole,
// length word included, so reading it cannot block. It peeks; it never
// reads from the connection.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	lenb, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(lenb))
}

// flush ends a batch of frames responses, the first of them answering
// request id first, and records it as one enqueue event carrying the
// bytes it flushes (what the write buffer has not already flushed by
// itself).
func (s *Server) flush(bw *bufio.Writer, first, frames uint64) error {
	trace.Emit(trace.KindEnqueue, first, uint64(bw.Buffered()), frames)
	return bw.Flush()
}

// errFrame builds a StatusErr response carrying msg. Response bodies
// are raw (no length prefix): the frame length already delimits them.
func errFrame(dst []byte, id uint64, msg string) []byte {
	start := len(dst)
	dst = BeginFrame(dst, id, StatusErr)
	dst = append(dst, msg...)
	return EndFrame(dst, start)
}

// exec executes one decoded request against the connection's cache
// session and appends the encoded response frame to dst (in pipeline,
// the write buffer's free space); bytes before len(dst) are never
// touched, error paths included (they rewind to dst[:start] before
// answering). fatal marks
// protocol-level failures (unknown opcode, body that does not parse)
// after which the connection must close; operation failures (absent
// key, CAS mismatch, non-counter INCR target) are ordinary statuses and
// keep the session alive.
//
// c is the per-connection session created by pipeline: every cache op
// below reuses its pinned map handle, so the hot path performs zero
// handle-pool acquires per request.
//
//growt:wire dispatch opcode
func (s *Server) exec(c *cache.Session[Key, string], dst []byte, id uint64, kind byte, reqBody []byte) (frame []byte, fatal bool) {
	s.m.ops.Add(1)
	// Per-op counting is enum-derived: the counter exists iff OpName
	// knows the opcode, so this one line replaces a per-case increment
	// in every arm below (and can never miss a new opcode).
	if pc := s.m.opCount[kind]; pc != nil {
		pc.Add(1)
	}
	p := body{b: reqBody}
	start := len(dst)
	switch kind {
	case OpPing:
		if !p.done() {
			break
		}
		return EndFrame(BeginFrame(dst, id, StatusOK), start), false

	case OpGet:
		key := p.bytesField()
		if !p.done() {
			break
		}
		v, ok := c.Get(Key(key))
		if !ok {
			return EndFrame(BeginFrame(dst, id, StatusNotFound), start), false
		}
		dst = BeginFrame(dst, id, StatusOK)
		dst = append(dst, v...)
		return EndFrame(dst, start), false

	case OpSet:
		key := p.bytesField()
		val := p.bytesField()
		if !p.done() {
			break
		}
		c.Set(Key(key), string(val))
		return EndFrame(BeginFrame(dst, id, StatusOK), start), false

	case OpSetEx:
		key := p.bytesField()
		val := p.bytesField()
		ttl := p.uint64Field()
		if !p.done() {
			break
		}
		c.SetTTL(Key(key), string(val), ttlMillis(ttl))
		return EndFrame(BeginFrame(dst, id, StatusOK), start), false

	case OpExpire:
		key := p.bytesField()
		ttl := p.uint64Field()
		if !p.done() {
			break
		}
		if !c.Expire(Key(key), ttlMillis(ttl)) {
			return EndFrame(BeginFrame(dst, id, StatusNotFound), start), false
		}
		return EndFrame(BeginFrame(dst, id, StatusOK), start), false

	case OpTTL:
		key := p.bytesField()
		if !p.done() {
			break
		}
		d, ok := c.TTL(Key(key))
		if !ok {
			return EndFrame(BeginFrame(dst, id, StatusNotFound), start), false
		}
		dst = BeginFrame(dst, id, StatusOK)
		dst = AppendUint64(dst, ttlReply(d))
		return EndFrame(dst, start), false

	case OpDel:
		key := p.bytesField()
		if !p.done() {
			break
		}
		if !c.Delete(Key(key)) {
			return EndFrame(BeginFrame(dst, id, StatusNotFound), start), false
		}
		return EndFrame(BeginFrame(dst, id, StatusOK), start), false

	case OpCAS:
		key := p.bytesField()
		old := p.bytesField()
		new := p.bytesField()
		if !p.done() {
			break
		}
		swapped, found := c.CompareAndSwap(Key(key), string(old), string(new))
		switch {
		case swapped:
			return EndFrame(BeginFrame(dst, id, StatusOK), start), false
		case found:
			return EndFrame(BeginFrame(dst, id, StatusMismatch), start), false
		}
		return EndFrame(BeginFrame(dst, id, StatusNotFound), start), false

	case OpIncr:
		key := p.bytesField()
		delta := p.uint64Field()
		if !p.done() {
			break
		}
		v, ok := incr(c, Key(key), delta)
		if !ok {
			return errFrame(dst, id, "INCR target is not an 8-byte counter"), false
		}
		dst = BeginFrame(dst, id, StatusOK)
		dst = AppendUint64(dst, v)
		return EndFrame(dst, start), false

	case OpSize:
		if !p.done() {
			break
		}
		dst = BeginFrame(dst, id, StatusOK)
		dst = AppendUint64(dst, c.Len())
		return EndFrame(dst, start), false

	case OpMGet:
		// Batched GET: the response body is, per requested key in request
		// order, a found:u8 flag followed (when found) by the value as a
		// length-prefixed byte string — so one frame answers the whole
		// batch and partial misses are explicit, not terminal.
		n := p.uint32Field()
		keys := make([][]byte, 0, min(int(n), 64))
		for i := uint32(0); i < n && !p.bad; i++ {
			keys = append(keys, p.bytesField())
		}
		if !p.done() {
			break
		}
		dst = BeginFrame(dst, id, StatusOK)
		for _, key := range keys {
			if v, ok := c.Get(Key(key)); ok {
				dst = append(dst, 1)
				dst = AppendBytes(dst, []byte(v))
			} else {
				dst = append(dst, 0)
			}
			// Individual requests are capped at MaxFrame, but a batch of
			// large values can multiply past it — and a peer enforcing the
			// same cap would tear the connection down over an oversized
			// reply. Refuse with an ordinary per-request error instead.
			if uint32(len(dst)-start-4) > s.opt.MaxFrame {
				return errFrame(dst[:start], id,
					"MGET reply exceeds the frame cap; split the batch"), false
			}
		}
		return EndFrame(dst, start), false

	case OpMSet:
		// Batched default-TTL SET. The body is parsed and validated in
		// full before any store: a malformed batch applies nothing.
		n := p.uint32Field()
		pairs := make([][2][]byte, 0, min(int(n), 64))
		for i := uint32(0); i < n && !p.bad; i++ {
			k := p.bytesField()
			v := p.bytesField()
			pairs = append(pairs, [2][]byte{k, v})
		}
		if !p.done() {
			break
		}
		for _, kv := range pairs {
			c.Set(Key(kv[0]), string(kv[1]))
		}
		return EndFrame(BeginFrame(dst, id, StatusOK), start), false

	case OpStats:
		// Observability scrape: the registry — server, core-migration,
		// and cache series alike when growd wired obs.Default in — as
		// one JSON body. A scrape is a cold path; it allocates freely.
		if !p.done() {
			break
		}
		b, err := json.Marshal(s.m.reg.Snapshot())
		if err != nil {
			return errFrame(dst[:start], id, "stats encoding failed"), false
		}
		dst = BeginFrame(dst, id, StatusOK)
		dst = append(dst, b...)
		return EndFrame(dst, start), false

	case OpSlowLog:
		// Observability scrape like STATS: the slow-op log as one JSON
		// array. Cold path; allocates freely.
		if !p.done() {
			break
		}
		b, err := json.Marshal(s.slow.snapshot())
		if err != nil {
			return errFrame(dst[:start], id, "slowlog encoding failed"), false
		}
		dst = BeginFrame(dst, id, StatusOK)
		dst = append(dst, b...)
		return EndFrame(dst, start), false
	}
	return errFrame(dst[:start], id, "malformed request"), true
}
