package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/server"
	"repro/internal/server/client"
)

// The benchmark's own load generator. One genConn is one generator
// goroutine that owns one connection (client.Dial with one pooled
// connection): at most nproc of each. Requests are sent through the
// client's async API; the completion callback runs on that connection's
// reader goroutine, checks the answer, and files the latency.

var clockBase = time.Now()

// nanos reads the monotonic clock as nanoseconds since process start.
func nanos() int64 { return int64(time.Since(clockBase)) }

const (
	closedDepth = 16   // requests kept in flight per connection, closed loop
	openSlots   = 4096 // in-flight cap per connection, open loop: beyond it the backlog has run away
	sampleEvery = 64   // traced runs open spans on 1 op in 64
)

// slot is one in-flight request's context. Slots are allocated once per
// connection and recycled through genConn.free, so the generator
// allocates nothing per request.
type slot struct {
	c   *genConn
	idx int32
	key uint64 // key word; the answer to a GET must open with it
	set bool
	t0  int64 // send time (closed loop) or due time (open loop)
	req int64 // >0: sampled, this is the request id of its span
	kb  [8]byte
	vb  [valLen]byte
	cb  func(client.Resp)
}

// genConn is one generator: connection, op stream, slots, and the
// counters its reader goroutine maintains. Counters other than done are
// read by the generator only after every slot has come home through
// free, which orders the accesses.
type genConn struct {
	id     int
	cl     *client.Client
	slots  []slot
	free   chan int32
	ops    []uint32
	pos    int
	next   func(c *genConn, s *slot) // fills s.key/s.set/s.kb/s.vb from the next op word
	missOK bool                      // NOT_FOUND is a valid GET answer (svc-churn)
	newest uint64                    // svc-churn: ids this connection has SET so far

	rec       *recorder // nil: completions are counted but not filed
	winStart  int64
	sliceDur  int64
	notBefore int64 // open loop: samples due before this are warm-up

	done                              atomic.Int64
	sent, failed, gets, hits, newKeys int64

	tr   *tracer // nil unless traced
	feed bool    // traced svc-churn: every SET also goes to the cache twin
}

func newGenConn(id int, addr string, nslots int) (*genConn, error) {
	cl, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &genConn{id: id, cl: cl, slots: make([]slot, nslots), free: make(chan int32, nslots)}
	for i := range c.slots {
		s := &c.slots[i]
		s.c, s.idx = c, int32(i)
		s.cb = s.complete
		c.free <- int32(i)
	}
	return c, nil
}

// complete runs on the connection's reader goroutine.
func (s *slot) complete(r client.Resp) {
	now := nanos()
	c := s.c
	switch {
	case r.Err != nil:
		c.failed++
	case s.set:
		if r.Status != server.StatusOK {
			c.failed++
		}
	case r.Status == server.StatusOK:
		c.gets++
		c.hits++
		if !validValue(s.key, r.Val) {
			c.failed++
		}
	case r.Status == server.StatusNotFound && c.missOK:
		c.gets++
	default:
		c.failed++
	}
	if c.rec != nil && s.t0 >= c.notBefore {
		c.rec.add(int((now-c.winStart)/c.sliceDur), now-s.t0)
	}
	if s.req > 0 {
		c.tr.reader[c.id].add(spRequest, s.req, s.t0, now)
	}
	c.done.Add(1)
	c.free <- s.idx
}

// issue sends the next op of the stream from slot i, stamped t0.
func (c *genConn) issue(i int32, t0 int64) {
	s := &c.slots[i]
	c.next(c, s)
	s.t0 = t0
	s.req = 0
	c.sent++
	if c.tr != nil && c.tr.on && c.sent%sampleEvery == 0 {
		s.req = c.tr.nextReq()
	}
	if s.set {
		c.cl.SetAsync(s.kb[:], s.vb[:], s.cb)
	} else {
		c.cl.GetAsync(s.kb[:], s.cb)
	}
	switch {
	case s.req > 0:
		c.tr.replay(c.id, s.req, s.key, s.set)
	case c.feed && s.set:
		// The cache twin must sit at its entry budget, expiring and
		// evicting like the server's, for its rows to mean anything.
		c.tr.lad[c.id].cs.Set(server.Key(s.kb[:]), string(s.vb[:]))
	}
}

// begin arms a measurement phase. No request is in flight when it runs.
func (c *genConn) begin(rec *recorder, winStart, sliceDur int64) {
	c.rec, c.winStart, c.sliceDur, c.notBefore = rec, winStart, sliceDur, 0
	c.done.Store(0)
	c.sent, c.failed, c.gets, c.hits, c.newKeys = 0, 0, 0, 0, 0
}

// drain waits until every slot is home, or until limit passes, and
// returns how many requests are still out.
func (c *genConn) drain(limit time.Duration) int {
	deadline := time.After(limit)
	got := make([]int32, 0, len(c.slots))
	defer func() {
		for _, i := range got {
			c.free <- i
		}
	}()
	for len(got) < len(c.slots) {
		select {
		case i := <-c.free:
			got = append(got, i)
		case <-deadline:
			return len(c.slots) - len(got)
		}
	}
	return 0
}

// runClosed keeps the connection's slots in flight until winStart+dur:
// a closed loop, the next request waits for a completion.
func (c *genConn) runClosed(dur int64) (lost int) {
	end := c.winStart + dur
	for {
		i := <-c.free
		now := nanos()
		if now >= end {
			c.free <- i
			break
		}
		c.issue(i, now)
	}
	return c.drain(5 * time.Second)
}

// openStats is what one generator saw of one open-loop rung.
type openStats struct {
	lag      []uint32 // actual − due send time per op, ns
	dropped  int      // ops not sent because openSlots were all in flight
	lost     int      // ops still unanswered when the drain gave up
	inflight [4]int64 // Σ in-flight at each send, by quarter of the rung
	sends    [4]int64
}

// runOpen sends n ops on a fixed schedule — op k is due at
// winStart+offset+k·gap whatever the server does — and times each from
// its due time. The schedule is a periodic kernel timer (timerfd) read
// through the Go poller: the generator sleeps between ticks without
// holding a core or a scheduler slot, and a late wake-up finds the
// missed ticks counted, sends them at once, and charges each its own
// lag. (Go's timers round short sleeps up to a millisecond; a raw
// nanosleep pins a P until sysmon notices, which with two Ps stalls the
// connection's reader.)
func (c *genConn) runOpen(n int, gap, offset int64) (openStats, error) {
	st := openStats{lag: make([]uint32, 0, n)}
	first := c.winStart + offset
	tk, err := newTicker(first-nanos(), gap)
	if err != nil {
		return st, err
	}
	defer tk.close()
	for k := 0; k < n; {
		ticks, err := tk.wait()
		if err != nil {
			return st, err
		}
		for ; ticks > 0 && k < n; ticks, k = ticks-1, k+1 {
			due := first + int64(k)*gap
			st.lag = append(st.lag, satNanos(nanos()-due))
			q := k * 4 / n
			st.inflight[q] += c.sent - c.done.Load()
			st.sends[q]++
			select {
			case i := <-c.free:
				c.issue(i, due)
			default:
				st.dropped++
			}
		}
	}
	st.lost = c.drain(time.Second)
	return st, nil
}

// ticker is a periodic CLOCK_MONOTONIC timerfd. wait blocks in the Go
// poller until at least one period has elapsed and returns how many
// have since the last call.
type ticker struct{ f *os.File }

func newTicker(first, period int64) (*ticker, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = 0x800
		tfdCloexec     = 0x80000
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// struct itimerspec{it_interval, it_value}; a zero it_value disarms,
	// so a first tick already due is asked for 1 ns from now.
	spec := [2]syscall.Timespec{syscall.NsecToTimespec(period), syscall.NsecToTimespec(max(first, 1))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd")}, nil
}

func (t *ticker) wait() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(t.f, b[:]); err != nil {
		return 0, fmt.Errorf("timerfd read: %w", err)
	}
	return binary.NativeEndian.Uint64(b[:]), nil
}

func (t *ticker) close() { t.f.Close() }

// parallel runs f once per generator, each on its own goroutine, and
// waits for all of them.
func parallel(conns []*genConn, f func(c *genConn)) {
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// staticNext serves svc-read and svc-open: op words index a fixed,
// prefilled key set.
func staticNext(keys []uint64) func(c *genConn, s *slot) {
	return func(c *genConn, s *slot) {
		w := c.ops[c.pos]
		if c.pos++; c.pos == len(c.ops) {
			c.pos = 0
		}
		s.key = keys[w&^setFlag]
		s.set = w&setFlag != 0
		binary.BigEndian.PutUint64(s.kb[:], s.key)
		if s.set {
			fillValue(&s.vb, s.key)
		}
	}
}

// churnNext serves svc-churn: a write SETs an id this connection has
// never used; a read GETs an id the op word's Zipf rank behind the
// newest one, so recent ids are hot and old ones have expired or been
// evicted.
func churnNext(seed uint64) func(c *genConn, s *slot) {
	return func(c *genConn, s *slot) {
		w := c.ops[c.pos]
		if c.pos++; c.pos == len(c.ops) {
			c.pos = 0
		}
		s.set = w&setFlag != 0 || c.newest == 0
		var id uint64
		if s.set {
			id = c.newest
			c.newest++
			c.newKeys++
		} else {
			back := uint64(w&^setFlag) % c.newest
			id = c.newest - 1 - back
		}
		s.key = keyWord(seed, uint64(c.id+1)<<40|id)
		binary.BigEndian.PutUint64(s.kb[:], s.key)
		if s.set {
			fillValue(&s.vb, s.key)
		}
	}
}
