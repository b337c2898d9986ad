// Package client is the pipelined Go client for the growd protocol
// (internal/server, docs/PROTOCOL.md). A Client owns a pool of
// connections. Any number of goroutines may share one Client:
// concurrent calls pipeline onto the pooled connections instead of
// waiting for each other's round trips.
//
// A connection is one mutex over a write buffer and a FIFO of waiting
// callbacks, plus two goroutines. A request takes the next id, joins
// the FIFO and is framed straight into the write buffer, all under the
// mutex, so it allocates nothing. The writer goroutine, kicked when
// the buffer fills from empty, swaps it for its spare and writes the
// whole batch at once. The reader goroutine reads responses through a
// 64 KiB buffer and hands each to the FIFO's head: growd answers in
// request order, so a response for any other id ends the connection.
// Neither the buffer nor the FIFO has a cap: what bounds them is how
// many requests the callers keep in flight.
package client

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// ErrClosed is reported by calls on a closed client or after a
// connection failure (wrapped with the underlying cause when known).
var ErrClosed = errors.New("client: connection closed")

// Resp is a decoded response. Val aliases the connection's read buffer
// inside callbacks — async callbacks must copy it to retain it; the
// synchronous wrappers already return copies.
type Resp struct {
	Status byte
	Val    []byte // GET value; StatusErr message
	N      uint64 // INCR / SIZE result
	Err    error  // transport failure; Status is unset when non-nil
}

type config struct {
	conns    int
	maxFrame uint32
	dialWait time.Duration
}

// Option configures Dial.
type Option func(*config)

// WithConns sets the connection pool size (default 1). Calls are
// spread round-robin; independent pipelines multiply throughput until
// the server side saturates.
func WithConns(n int) Option { return func(c *config) { c.conns = n } }

// WithMaxFrame caps acceptable response frames (default
// server.DefaultMaxFrame).
func WithMaxFrame(n uint32) Option { return func(c *config) { c.maxFrame = n } }

// WithDialWait keeps retrying the initial dials until the deadline
// (default: one attempt). Lets a load generator start before the server
// finishes binding.
func WithDialWait(d time.Duration) Option { return func(c *config) { c.dialWait = d } }

// Client is a pooled, pipelined protocol client. Safe for concurrent use.
type Client struct {
	conns []*conn
	next  atomic.Uint64
}

// Dial connects the pool.
func Dial(addr string, opts ...Option) (*Client, error) {
	cfg := config{conns: 1, maxFrame: server.DefaultMaxFrame}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.conns < 1 {
		cfg.conns = 1
	}
	cl := &Client{}
	deadline := time.Now().Add(cfg.dialWait)
	for i := 0; i < cfg.conns; i++ {
		nc, err := dialUntil(addr, deadline)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.conns = append(cl.conns, newConn(nc, &cfg))
	}
	return cl, nil
}

// dialUntil retries the dial until deadline (at least one attempt).
func dialUntil(addr string, deadline time.Time) (net.Conn, error) {
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Close tears down every connection; in-flight requests fail with
// ErrClosed.
func (cl *Client) Close() error {
	for _, c := range cl.conns {
		c.close(ErrClosed)
	}
	return nil
}

// conn returns the next pool member round-robin.
func (cl *Client) conn() *conn {
	return cl.conns[cl.next.Add(1)%uint64(len(cl.conns))]
}

// ---------------------------------------------------------------------
// Synchronous API. Each call pipelines onto a pooled connection and
// blocks only for its own response.

// Ping round-trips a liveness probe.
func (cl *Client) Ping() error {
	return expectOK("PING", cl.conn().roundTrip(server.OpPing, req{}))
}

// Get fetches the value at key; ok is false when absent (or expired).
func (cl *Client) Get(key []byte) (val []byte, ok bool, err error) {
	r := cl.conn().roundTrip(server.OpGet, req{fields: [][]byte{key}})
	switch {
	case r.Err != nil:
		return nil, false, r.Err
	case r.Status == server.StatusNotFound:
		return nil, false, nil
	case r.Status == server.StatusOK:
		return r.Val, true, nil // roundTrip already copied it
	}
	return nil, false, statusErr("GET", r)
}

// Set unconditionally stores ⟨key, val⟩ under the server's default TTL.
func (cl *Client) Set(key, val []byte) error {
	return expectOK("SET", cl.conn().roundTrip(server.OpSet, req{fields: [][]byte{key, val}}))
}

// SetEx stores ⟨key, val⟩ with an explicit per-entry TTL (millisecond
// wire resolution, sub-ms values round up; ttl <= 0 stores an immortal
// entry).
func (cl *Client) SetEx(key, val []byte, ttl time.Duration) error {
	return expectOK("SETEX", cl.conn().roundTrip(server.OpSetEx, req{fields: [][]byte{key, val}, n: ttlToMillis(ttl), hasN: true}))
}

// Expire re-deadlines the live entry at key to now+ttl; ok is false
// when the key is absent or already expired.
func (cl *Client) Expire(key []byte, ttl time.Duration) (ok bool, err error) {
	r := cl.conn().roundTrip(server.OpExpire, req{fields: [][]byte{key}, n: ttlToMillis(ttl), hasN: true})
	switch {
	case r.Err != nil:
		return false, r.Err
	case r.Status == server.StatusOK:
		return true, nil
	case r.Status == server.StatusNotFound:
		return false, nil
	}
	return false, statusErr("EXPIRE", r)
}

// TTL returns the remaining time-to-live of the live entry at key.
// ok is false when the key is absent or expired; a live entry with no
// deadline reports ttl < 0.
func (cl *Client) TTL(key []byte) (ttl time.Duration, ok bool, err error) {
	r := cl.conn().roundTrip(server.OpTTL, req{fields: [][]byte{key}})
	switch {
	case r.Err != nil:
		return 0, false, r.Err
	case r.Status == server.StatusNotFound:
		return 0, false, nil
	case r.Status == server.StatusOK:
		if r.N == server.TTLImmortal {
			return -1, true, nil
		}
		return time.Duration(r.N) * time.Millisecond, true, nil
	}
	return 0, false, statusErr("TTL", r)
}

// Del removes key; ok reports whether a live entry was present.
func (cl *Client) Del(key []byte) (ok bool, err error) {
	r := cl.conn().roundTrip(server.OpDel, req{fields: [][]byte{key}})
	switch {
	case r.Err != nil:
		return false, r.Err
	case r.Status == server.StatusOK:
		return true, nil
	case r.Status == server.StatusNotFound:
		return false, nil
	}
	return false, statusErr("DEL", r)
}

// CAS atomically replaces key's value with new iff it currently equals
// old. swapped reports success; found distinguishes a mismatch
// (found=true) from an absent key (found=false).
func (cl *Client) CAS(key, old, new []byte) (swapped, found bool, err error) {
	r := cl.conn().roundTrip(server.OpCAS, req{fields: [][]byte{key, old, new}})
	switch {
	case r.Err != nil:
		return false, false, r.Err
	case r.Status == server.StatusOK:
		return true, true, nil
	case r.Status == server.StatusMismatch:
		return false, true, nil
	case r.Status == server.StatusNotFound:
		return false, false, nil
	}
	return false, false, statusErr("CAS", r)
}

// Incr adds delta to the 8-byte big-endian counter at key (absent keys
// start at 0) and returns the new value.
func (cl *Client) Incr(key []byte, delta uint64) (uint64, error) {
	r := cl.conn().roundTrip(server.OpIncr, req{fields: [][]byte{key}, n: delta, hasN: true})
	switch {
	case r.Err != nil:
		return 0, r.Err
	case r.Status == server.StatusOK:
		return r.N, nil
	}
	return 0, statusErr("INCR", r)
}

// Size returns the server's approximate element count.
func (cl *Client) Size() (uint64, error) {
	r := cl.conn().roundTrip(server.OpSize, req{})
	switch {
	case r.Err != nil:
		return 0, r.Err
	case r.Status == server.StatusOK:
		return r.N, nil
	}
	return 0, statusErr("SIZE", r)
}

// MGet fetches a batch of keys in one frame. vals is parallel to keys:
// vals[i] is nil when keys[i] was absent (or expired) — a partial miss
// is an ordinary reply, not an error. A present-but-empty value comes
// back as a non-nil empty slice.
func (cl *Client) MGet(keys ...[]byte) (vals [][]byte, err error) {
	r := cl.conn().roundTrip(server.OpMGet, req{raw: server.AppendUint32(nil, uint32(len(keys))), fields: keys})
	switch {
	case r.Err != nil:
		return nil, r.Err
	case r.Status != server.StatusOK:
		return nil, statusErr("MGET", r)
	}
	return parseMGet(r.Val, len(keys))
}

// parseMGet decodes an MGET reply body: per requested key, found:u8 then
// (when found) the value as a length-prefixed byte string.
func parseMGet(b []byte, n int) ([][]byte, error) {
	vals := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("client: MGET: reply truncated at entry %d", i)
		}
		found := b[0] != 0
		b = b[1:]
		if !found {
			vals = append(vals, nil)
			continue
		}
		if len(b) < 4 {
			return nil, fmt.Errorf("client: MGET: reply truncated at entry %d", i)
		}
		vlen := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < vlen {
			return nil, fmt.Errorf("client: MGET: reply truncated at entry %d", i)
		}
		vals = append(vals, append([]byte{}, b[:vlen]...))
		b = b[vlen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("client: MGET: %d trailing reply bytes", len(b))
	}
	return vals, nil
}

// Stats scrapes the server's metric registry over the wire (STATS):
// every counter, gauge, and latency histogram the server side has
// registered, as one mergeable/subtractable snapshot. Scraping through
// the data protocol means a load generator measures the same path it
// loads — no side-channel HTTP listener required.
func (cl *Client) Stats() (obs.Snapshot, error) {
	r := cl.conn().roundTrip(server.OpStats, req{})
	switch {
	case r.Err != nil:
		return obs.Snapshot{}, r.Err
	case r.Status != server.StatusOK:
		return obs.Snapshot{}, statusErr("STATS", r)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(r.Val, &s); err != nil {
		return obs.Snapshot{}, fmt.Errorf("client: STATS: bad snapshot body: %w", err)
	}
	return s, nil
}

// SlowLog fetches the server's slow-op log (the SLOWLOG opcode):
// every recent request over the server's latency threshold, in
// ascending timestamp order. Like Stats it is an observability scrape
// over the data connection — a load generator can pull the slow ops of
// exactly its measured window without a side channel.
func (cl *Client) SlowLog() ([]server.SlowEntry, error) {
	r := cl.conn().roundTrip(server.OpSlowLog, req{})
	switch {
	case r.Err != nil:
		return nil, r.Err
	case r.Status != server.StatusOK:
		return nil, statusErr("SLOWLOG", r)
	}
	var es []server.SlowEntry
	if err := json.Unmarshal(r.Val, &es); err != nil {
		return nil, fmt.Errorf("client: SLOWLOG: bad body: %w", err)
	}
	return es, nil
}

// MSet stores a batch of ⟨key, val⟩ pairs in one frame under the
// server's default TTL. A malformed batch applies nothing server-side.
func (cl *Client) MSet(pairs ...[2][]byte) error {
	b := server.AppendUint32(nil, uint32(len(pairs)))
	for _, kv := range pairs {
		b = server.AppendBytes(b, kv[0])
		b = server.AppendBytes(b, kv[1])
	}
	return expectOK("MSET", cl.conn().roundTrip(server.OpMSet, req{raw: b}))
}

// ttlToMillis converts a duration into the wire's millisecond TTL
// domain (0 = immortal), saturating negatives to 0. Positive sub-
// millisecond TTLs round UP to 1 ms: truncation would flip "expire
// almost immediately" into "never expire".
func ttlToMillis(ttl time.Duration) uint64 {
	if ttl <= 0 {
		return 0
	}
	return uint64((ttl + time.Millisecond - 1) / time.Millisecond)
}

// ---------------------------------------------------------------------
// Asynchronous API: the open-loop load generator schedules request
// admission independently of completions, so it needs fire-and-callback
// sends. cb runs on the connection's reader goroutine and must not
// block; Resp.Val aliases the read buffer and must be copied to retain.

// GetAsync pipelines a GET.
func (cl *Client) GetAsync(key []byte, cb func(Resp)) {
	cl.conn().send(server.OpGet, req{fields: [][]byte{key}}, cb)
}

// SetAsync pipelines a SET.
func (cl *Client) SetAsync(key, val []byte, cb func(Resp)) {
	cl.conn().send(server.OpSet, req{fields: [][]byte{key, val}}, cb)
}

// SetExAsync pipelines a SETEX (the open-loop expiring workload's write).
func (cl *Client) SetExAsync(key, val []byte, ttl time.Duration, cb func(Resp)) {
	cl.conn().send(server.OpSetEx, req{fields: [][]byte{key, val}, n: ttlToMillis(ttl), hasN: true}, cb)
}

// IncrAsync pipelines an INCR.
func (cl *Client) IncrAsync(key []byte, delta uint64, cb func(Resp)) {
	cl.conn().send(server.OpIncr, req{fields: [][]byte{key}, n: delta, hasN: true}, cb)
}

// expectOK turns a response whose only answer is OK into an error.
func expectOK(op string, r Resp) error {
	switch {
	case r.Err != nil:
		return r.Err
	case r.Status == server.StatusOK:
		return nil
	}
	return statusErr(op, r)
}

func statusErr(op string, r Resp) error {
	if r.Status == server.StatusErr {
		return fmt.Errorf("client: %s: server error: %s", op, r.Val)
	}
	return fmt.Errorf("client: %s: unexpected status %#x", op, r.Status)
}

// ---------------------------------------------------------------------
// Connection machinery.

type conn struct {
	c        net.Conn
	kick     chan struct{} // one slot: wakes the writer when wbuf fills from empty
	done     chan struct{} // closed when the connection is torn down
	maxFrame uint32

	mu     sync.Mutex
	nextID uint64
	wbuf   []byte // request frames the writer has not taken yet
	q      fifo   // callbacks of requests sent and not yet answered
	sticky error  // first failure; set before done closes

	closeOnce sync.Once
}

func newConn(nc net.Conn, cfg *config) *conn {
	c := &conn{
		c:        nc,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		maxFrame: cfg.maxFrame,
		wbuf:     make([]byte, 0, 64<<10),
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// close fails all pending requests with cause and tears the conn down.
func (c *conn) close(cause error) {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.sticky = cause
		q := c.q
		c.q = fifo{}
		c.mu.Unlock()
		close(c.done)
		c.c.Close()
		for i := 0; i < q.n; i++ {
			q.ring[(q.head+i)&(len(q.ring)-1)].cb(Resp{Err: cause})
		}
	})
}

// req is a request body as send frames it: raw as it is, then each
// field as a length-prefixed byte string (a nil field is a zero-length
// one, never a missing one), then n as a u64 when hasN is set.
type req struct {
	raw    []byte
	fields [][]byte
	n      uint64
	hasN   bool
}

// send pipelines one request; cb always fires exactly once. Under the
// mutex it takes the next id, queues cb behind every earlier request
// and frames the request straight into the write buffer, so the wire
// and the queue hold requests in the same order; if the buffer was
// empty it kicks the writer.
//
//growt:wire encode opcode
func (c *conn) send(kind byte, r req, cb func(Resp)) {
	c.mu.Lock()
	if err := c.sticky; err != nil {
		c.mu.Unlock()
		cb(Resp{Err: fmt.Errorf("%w: %w", ErrClosed, err)})
		return
	}
	c.nextID++
	c.q.push(waiting{c.nextID, cb})
	start := len(c.wbuf)
	b := append(server.BeginFrame(c.wbuf, c.nextID, kind), r.raw...)
	for _, f := range r.fields {
		b = server.AppendBytes(b, f)
	}
	if r.hasN {
		b = server.AppendUint64(b, r.n)
	}
	c.wbuf = server.EndFrame(b, start)
	c.mu.Unlock()
	if start == 0 {
		select {
		case c.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
}

// waiter is a synchronous call's rendezvous, pooled: its callback
// fires exactly once per call, so it is free again after the receive.
type waiter struct {
	ch chan Resp
	cb func(Resp)
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{ch: make(chan Resp, 1)}
	// Val is copied here: the reader's buffer is only stable for the
	// callback's duration.
	w.cb = func(r Resp) {
		if len(r.Val) > 0 {
			r.Val = append([]byte(nil), r.Val...)
		}
		w.ch <- r
	}
	return w
}}

// roundTrip is send + wait.
//
//growt:wire encode opcode
func (c *conn) roundTrip(kind byte, r req) Resp {
	w := waiters.Get().(*waiter)
	c.send(kind, r, w.cb)
	resp := <-w.ch
	waiters.Put(w)
	return resp
}

// failWrite tears the connection down after a write error. Kept out of
// writeLoop so the hot loop stays free of fmt.
func (c *conn) failWrite(err error) {
	c.close(fmt.Errorf("%w: write: %w", ErrClosed, err))
}

// writeLoop takes the whole write buffer at each kick, leaving its
// spare in its place, and writes it with one Write: every frame
// appended while the last Write ran goes out in the next one. The
// writer runs once a kick wakes it, which is mostly after the issuing
// goroutine has queued what it had, so a burst of requests costs one
// write(2), not one each.
//
//growt:hotpath
func (c *conn) writeLoop() {
	spare := make([]byte, 0, 64<<10)
	for {
		select {
		case <-c.kick:
		case <-c.done:
			return
		}
		c.mu.Lock()
		buf := c.wbuf
		c.wbuf = spare
		c.mu.Unlock()
		if len(buf) > 0 {
			if _, err := c.c.Write(buf); err != nil {
				c.failWrite(err)
				return
			}
		}
		spare = buf[:0]
	}
}

// readLoop decodes responses through a 64 KiB buffer, so one read(2)
// serves a whole batch, and hands each to the oldest waiting callback:
// growd answers in request order, so a response whose id is not the
// oldest request's tears the connection down.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	var buf []byte
	for {
		id, status, respBody, nbuf, err := server.ReadFrame(br, c.maxFrame, buf)
		buf = nbuf
		if err != nil {
			c.close(fmt.Errorf("%w: read: %w", ErrClosed, err))
			return
		}
		c.mu.Lock()
		cb := c.q.popID(id)
		c.mu.Unlock()
		if cb == nil {
			// id 0 is the server's terminal protocol-error response (it
			// could not attribute the failure to a request).
			if id == 0 && status == server.StatusErr {
				c.close(fmt.Errorf("%w: server: %s", ErrClosed, respBody))
			} else {
				c.close(fmt.Errorf("%w: response for unknown request id %d", ErrClosed, id))
			}
			return
		}
		cb(decode(status, respBody))
	}
}

// waiting is one request sent and not yet answered.
type waiting struct {
	id uint64
	cb func(Resp)
}

// fifo is a growable ring of waiting requests, oldest first.
type fifo struct {
	ring    []waiting // len is 0 or a power of two
	head, n int
}

func (q *fifo) push(w waiting) {
	if q.n == len(q.ring) {
		grown := make([]waiting, max(16, 2*len(q.ring)))
		copy(grown[copy(grown, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = w
	q.n++
}

// popID pops the oldest request if id is its id, and returns its
// callback; nil if the queue is empty or the oldest has another id.
func (q *fifo) popID(id uint64) func(Resp) {
	if q.n == 0 || q.ring[q.head].id != id {
		return nil
	}
	cb := q.ring[q.head].cb
	q.ring[q.head] = waiting{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return cb
}

// decode splits a response body per status: OK bodies carry the value
// bytes or a u64 result, error bodies carry the message.
//
//growt:wire decode wirestatus
func decode(status byte, respBody []byte) Resp {
	r := Resp{Status: status}
	switch status {
	case server.StatusOK:
		if len(respBody) == 8 {
			r.N = binary.BigEndian.Uint64(respBody)
		}
		r.Val = respBody
	case server.StatusErr:
		r.Val = respBody
	case server.StatusNotFound, server.StatusMismatch:
		// No body: the status alone is the answer. Listed explicitly so
		// statusswitch proves the client handles every wire status.
	}
	return r
}
