package server_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// startServer runs a server on a loopback listener and returns its
// address. Cleanup shuts it down and verifies every session unwound.
func startServer(t *testing.T, opt server.Options) (*server.Server, string) {
	t.Helper()
	st := server.NewStore()
	srv := server.New(st, opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		st.Close()
	})
	return srv, ln.Addr().String()
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerOps(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// GET absent / SET / GET present / overwrite.
	if _, ok, err := cl.Get([]byte("k")); err != nil || ok {
		t.Fatalf("get absent = %v, %v", ok, err)
	}
	if err := cl.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get([]byte("k")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get = %q, %v, %v", v, ok, err)
	}
	if err := cl.Set([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := cl.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("overwrite left %q", v)
	}

	// Empty value and empty key are legal byte strings — including nil
	// slices, which must encode as zero-length fields, not missing ones.
	if err := cl.Set([]byte{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get([]byte{}); err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty key/value = %q, %v, %v", v, ok, err)
	}
	if err := cl.Set([]byte("niltest"), nil); err != nil {
		t.Fatalf("nil value: %v", err)
	}
	if v, ok, err := cl.Get([]byte("niltest")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("nil-value roundtrip = %q, %v, %v", v, ok, err)
	}
	if swapped, _, err := cl.CAS([]byte("niltest"), nil, []byte("now-set")); err != nil || !swapped {
		t.Fatalf("cas from nil old = %v, %v", swapped, err)
	}
	// The connection must still be healthy (a missing-field frame would
	// have been terminal).
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unhealthy after nil-slice ops: %v", err)
	}

	// CAS: mismatch, match, absent.
	if swapped, found, err := cl.CAS([]byte("k"), []byte("wrong"), []byte("v3")); err != nil || swapped || !found {
		t.Fatalf("cas mismatch = %v, %v, %v", swapped, found, err)
	}
	if swapped, _, err := cl.CAS([]byte("k"), []byte("v2"), []byte("v3")); err != nil || !swapped {
		t.Fatalf("cas match = %v, %v", swapped, err)
	}
	if v, _, _ := cl.Get([]byte("k")); string(v) != "v3" {
		t.Fatalf("cas left %q", v)
	}
	if swapped, found, err := cl.CAS([]byte("nope"), []byte("a"), []byte("b")); err != nil || swapped || found {
		t.Fatalf("cas absent = %v, %v, %v", swapped, found, err)
	}

	// DEL present / absent.
	if ok, err := cl.Del([]byte("k")); err != nil || !ok {
		t.Fatalf("del = %v, %v", ok, err)
	}
	if ok, _ := cl.Del([]byte("k")); ok {
		t.Fatal("double del succeeded")
	}

	// INCR: init, add, and the non-counter error.
	if v, err := cl.Incr([]byte("ctr"), 5); err != nil || v != 5 {
		t.Fatalf("incr init = %d, %v", v, err)
	}
	if v, err := cl.Incr([]byte("ctr"), 7); err != nil || v != 12 {
		t.Fatalf("incr = %d, %v", v, err)
	}
	cl.Set([]byte("str"), []byte("not a counter"))
	if _, err := cl.Incr([]byte("str"), 1); err == nil {
		t.Fatal("incr of a non-counter value must fail")
	}
	if v, _, _ := cl.Get([]byte("str")); string(v) != "not a counter" {
		t.Fatalf("failed incr must leave the value, got %q", v)
	}

	// SIZE sees the live elements (generic route counts exactly).
	n, err := cl.Size()
	if err != nil || n != 4 { // "", niltest, ctr, str
		t.Fatalf("size = %d, %v", n, err)
	}
}

// TestPipelining issues a deep pipeline of async requests and checks
// every response routes back to its own callback.
func TestPipelining(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 2000
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		val := []byte(fmt.Sprintf("v%04d", i))
		wg.Add(1)
		cl.SetAsync(key, val, func(r client.Resp) {
			if r.Err != nil || r.Status != server.StatusOK {
				t.Errorf("set %s: %v status %#x", key, r.Err, r.Status)
			}
			wg.Done()
		})
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		wg.Add(1)
		i := i
		cl.GetAsync([]byte(fmt.Sprintf("k%04d", i)), func(r client.Resp) {
			want := fmt.Sprintf("v%04d", i)
			if r.Err != nil || string(r.Val) != want {
				t.Errorf("get %d = %q, %v (want %q)", i, r.Val, r.Err, want)
			}
			wg.Done()
		})
	}
	wg.Wait()
}

// rawConn is a frame-level test client for protocol-violation cases.
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t, c}
}

func (r *rawConn) send(frame []byte) {
	r.t.Helper()
	if _, err := r.c.Write(frame); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) read() (id uint64, status byte, respBody []byte, err error) {
	r.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	id, status, respBody, _, err = server.ReadFrame(r.c, server.DefaultMaxFrame, nil)
	return id, status, respBody, err
}

func frame(id uint64, kind byte, body ...[]byte) []byte {
	f := server.BeginFrame(nil, id, kind)
	for _, b := range body {
		f = server.AppendBytes(f, b)
	}
	return server.EndFrame(f, 0)
}

func TestMalformedFrameRejection(t *testing.T) {
	srv, addr := startServer(t, server.Options{MaxFrame: 1 << 12})

	t.Run("unknown-opcode", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(frame(7, 0x7F))
		id, status, _, err := rc.read()
		if err != nil || status != server.StatusErr || id != 7 {
			t.Fatalf("want StatusErr for id 7, got id=%d status=%#x err=%v", id, status, err)
		}
		// Terminal: the connection must close after the error response.
		if _, _, _, err := rc.read(); err == nil {
			t.Fatal("connection stayed open after protocol error")
		}
	})

	t.Run("truncated-body", func(t *testing.T) {
		rc := dialRaw(t, addr)
		// A GET whose body is shorter than its key length prefix claims.
		f := server.BeginFrame(nil, 9, server.OpGet)
		f = binary.BigEndian.AppendUint32(f, 100) // key length 100, no bytes
		rc.send(server.EndFrame(f, 0))
		id, status, _, err := rc.read()
		if err != nil || status != server.StatusErr || id != 9 {
			t.Fatalf("want StatusErr for id 9, got id=%d status=%#x err=%v", id, status, err)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		rc := dialRaw(t, addr)
		// A PING with leftover body bytes must be rejected, not ignored.
		f := server.BeginFrame(nil, 11, server.OpPing)
		f = append(f, 0xAA)
		rc.send(server.EndFrame(f, 0))
		_, status, _, err := rc.read()
		if err != nil || status != server.StatusErr {
			t.Fatalf("want StatusErr, got status=%#x err=%v", status, err)
		}
	})

	t.Run("oversized-frame", func(t *testing.T) {
		rc := dialRaw(t, addr)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<20) // above the 4 KiB cap
		rc.send(hdr[:])
		id, status, _, err := rc.read()
		if err != nil || status != server.StatusErr || id != 0 {
			t.Fatalf("want terminal StatusErr id=0, got id=%d status=%#x err=%v", id, status, err)
		}
		if _, _, _, err := rc.read(); err == nil {
			t.Fatal("connection stayed open after oversized frame")
		}
	})

	t.Run("short-frame", func(t *testing.T) {
		rc := dialRaw(t, addr)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 3) // < id+kind
		rc.send(hdr[:])
		if _, status, _, err := rc.read(); err != nil || status != server.StatusErr {
			t.Fatalf("want StatusErr, got status=%#x err=%v", status, err)
		}
	})

	// The server survives all of it and keeps serving well-formed clients.
	waitFor(t, "sessions to unwind", func() bool { return srv.Stats().ConnsActive == 0 })
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("server unhealthy after protocol errors: %v", err)
	}
	if srv.Stats().ProtocolErrs < 5 {
		t.Fatalf("protocol errors not counted: %+v", srv.Stats())
	}
}

// TestClientDisconnectMidPipeline drops connections at awkward moments
// and checks the sessions unwind without leaking and without disturbing
// other clients.
func TestClientDisconnectMidPipeline(t *testing.T) {
	srv, addr := startServer(t, server.Options{})

	// A well-behaved bystander whose session must survive it all.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Set([]byte("stable"), []byte("value"))

	for i := 0; i < 10; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A pipeline burst...
		var burst []byte
		for j := 0; j < 100; j++ {
			burst = append(burst, frame(uint64(j+1), server.OpSet,
				[]byte(fmt.Sprintf("churn%d", j)), []byte("x"))...)
		}
		// ...then cut the connection mid-frame: half a SET's header.
		burst = append(burst, 0, 0, 0, 20, 0, 0)
		if _, err := c.Write(burst); err != nil {
			t.Fatal(err)
		}
		c.Close() // without ever reading a response
	}

	// Accepted first: a connection the server has not accepted yet is not
	// active either.
	waitFor(t, "churned sessions to unwind", func() bool {
		st := srv.Stats()
		return st.ConnsAccepted == 11 && st.ConnsActive == 1
	})
	if v, ok, err := cl.Get([]byte("stable")); err != nil || !ok || string(v) != "value" {
		t.Fatalf("bystander disturbed: %q, %v, %v", v, ok, err)
	}
	// The half-written pipelines were executed up to the cut.
	if v, ok, _ := cl.Get([]byte("churn99")); !ok || string(v) != "x" {
		t.Fatalf("pipelined ops before the cut were lost: %q, %v", v, ok)
	}
}

// TestConcurrentPipelinedClients is the -race workout: many goroutines
// hammer one pooled client with a mixed pipeline, and the INCR totals
// must come out exact.
func TestConcurrentPipelinedClients(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	cl, err := client.Dial(addr, client.WithConns(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const (
		workers  = 8
		rounds   = 300
		counters = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctr := []byte(fmt.Sprintf("ctr%d", (r+w)%counters))
				if _, err := cl.Incr(ctr, 1); err != nil {
					t.Errorf("incr: %v", err)
					return
				}
				key := []byte(fmt.Sprintf("w%d-k%d", w, r%16))
				if err := cl.Set(key, []byte("data")); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				if _, _, err := cl.Get(key); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if r%8 == 0 {
					cl.Del(key)
				}
			}
		}(w)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < counters; i++ {
		v, err := cl.Incr([]byte(fmt.Sprintf("ctr%d", i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if want := uint64(workers * rounds); total != want {
		t.Fatalf("lost increments over the wire: %d want %d", total, want)
	}
}

// TestCASContention drives an end-to-end optimistic-concurrency loop:
// every successful swap is one unique transition, so the final value
// counts them exactly.
func TestCASContention(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	cl, err := client.Dial(addr, client.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	key := []byte("cas-ctr")
	enc := func(v uint64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		return b[:]
	}
	cl.Set(key, enc(0))

	const workers, swapsEach = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < swapsEach; {
				cur, ok, err := cl.Get(key)
				if err != nil || !ok {
					t.Errorf("get: %v %v", ok, err)
					return
				}
				next := enc(binary.BigEndian.Uint64(cur) + 1)
				swapped, _, err := cl.CAS(key, cur, next)
				if err != nil {
					t.Errorf("cas: %v", err)
					return
				}
				if swapped {
					done++
				}
			}
		}()
	}
	wg.Wait()
	final, _, _ := cl.Get(key)
	if got := binary.BigEndian.Uint64(final); got != workers*swapsEach {
		t.Fatalf("cas lost transitions: %d want %d", got, workers*swapsEach)
	}
}

// TestGracefulShutdown: a client with a full pipeline in flight gets
// all its responses before Shutdown returns.
func TestGracefulShutdown(t *testing.T) {
	st := server.NewStore()
	defer st.Close()
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var okCount int64
	var mu sync.Mutex
	for i := 0; i < 500; i++ {
		wg.Add(1)
		cl.SetAsync([]byte(fmt.Sprintf("k%d", i)), []byte("v"), func(r client.Resp) {
			if r.Err == nil && r.Status == server.StatusOK {
				mu.Lock()
				okCount++
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait() // every pipelined response arrived
	cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if okCount != 500 {
		t.Fatalf("only %d of 500 pipelined ops answered", okCount)
	}
	// Post-shutdown dials must be refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownForceClosesIdleSessions: an idle connected client cannot
// stall shutdown past its context.
func TestShutdownForceClosesIdleSessions(t *testing.T) {
	st := server.NewStore()
	defer st.Close()
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor(t, "idle session", func() bool { return srv.Stats().ConnsActive == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The forced close must have torn the idle session down.
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle conn read = %v, want EOF", err)
	}
}

// TestManyConnections: every connection pins a map handle for life, so the
// handles must be as many as the connections. Past 8×GOMAXPROCS of them a
// connection used to be accepted and never answered.
func TestManyConnections(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	n := 8*runtime.GOMAXPROCS(0) + 4
	conns := make([]*rawConn, n)
	for i := range conns {
		conns[i] = dialRaw(t, addr)
	}
	for i, c := range conns {
		c.send(frame(uint64(i+1), server.OpPing))
		id, status, _, err := c.read()
		if err != nil || id != uint64(i+1) || status != server.StatusOK {
			t.Fatalf("connection %d of %d, all open: PING answered id=%d status=%d err=%v", i+1, n, id, status, err)
		}
	}
}

// TestSessionHeapPerConnection pins what a client that never reads
// costs the server. Its session stops in a blocked write holding the
// same fixed buffers an idle session holds, so the per-connection heap
// of sixteen such clients, each pipelining about 4 MiB of GETs for a
// 1 KiB value, stays within 192 KiB of that of sixteen idle ones.
func TestSessionHeapPerConnection(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	const n = 16
	setup := dialRaw(t, addr)
	setup.send(frame(1, server.OpSet, []byte("k"), make([]byte, 1<<10)))
	if _, status, _, err := setup.read(); err != nil || status != server.StatusOK {
		t.Fatalf("set: status=%#x err=%v", status, err)
	}
	// One burst serves every client; it is live before the first
	// measurement.
	get := frame(2, server.OpGet, []byte("k"))
	burst := make([]byte, 0, 4<<20)
	for len(burst)+len(get) <= cap(burst) {
		burst = append(burst, get...)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	for i := 0; i < n; i++ {
		dialRaw(t, addr)
	}
	waitFor(t, "idle sessions", func() bool { return srv.Stats().ConnsActive == 1+n })
	idle := heap()

	for i := 0; i < n; i++ {
		rc := dialRaw(t, addr)
		go rc.c.Write(burst) // returns when the cleanup closes the conn
	}
	waitFor(t, "never-reading sessions", func() bool { return srv.Stats().ConnsActive == 1+2*n })
	// Every never-reading session is parked in a write once the op count
	// stops moving.
	last := srv.Stats().Ops
	waitFor(t, "never-reading sessions to block", func() bool {
		time.Sleep(100 * time.Millisecond)
		ops := srv.Stats().Ops
		stable := ops == last
		last = ops
		return stable
	})
	stuck := heap()

	perIdle := (idle - base) / n
	perStuck := (stuck - idle) / n
	t.Logf("heap per connection: idle %d KiB, never reading %d KiB (%d ops served)", perIdle>>10, perStuck>>10, last)
	if perStuck > perIdle+192<<10 {
		t.Fatalf("a never-reading connection holds %d KiB of heap, an idle one %d KiB: want at most 192 KiB more",
			perStuck>>10, perIdle>>10)
	}
}

// TestPipelineBatches pins the reader's batch boundary: a batch is the
// frames already whole in the read buffer, it keeps request order
// through an error, never waits for a partial frame, and splits a
// pipeline whose responses outgrow one batch.
func TestPipelineBatches(t *testing.T) {
	_, addr := startServer(t, server.Options{})

	t.Run("error-mid-batch", func(t *testing.T) {
		rc := dialRaw(t, addr)
		var burst []byte
		burst = append(burst, frame(1, server.OpSet, []byte("a"), []byte("va"))...)
		burst = append(burst, frame(2, server.OpGet, []byte("a"))...)
		burst = append(burst, frame(3, server.OpPing)...)
		burst = append(burst, frame(4, 0x7F)...)
		burst = append(burst, frame(5, server.OpGet, []byte("a"))...)
		rc.send(burst)
		for _, want := range []struct {
			id     uint64
			status byte
			body   string
		}{{1, server.StatusOK, ""}, {2, server.StatusOK, "va"}, {3, server.StatusOK, ""}} {
			id, status, body, err := rc.read()
			if err != nil || id != want.id || status != want.status || string(body) != want.body {
				t.Fatalf("want id %d status %#x body %q; got id %d status %#x body %q err %v",
					want.id, want.status, want.body, id, status, body, err)
			}
		}
		if id, status, _, err := rc.read(); err != nil || id != 4 || status != server.StatusErr {
			t.Fatalf("want StatusErr for id 4, got id=%d status=%#x err=%v", id, status, err)
		}
		if id, _, _, err := rc.read(); err != io.EOF {
			t.Fatalf("want EOF after the terminal error, got id=%d err=%v", id, err)
		}
	})

	t.Run("partial-frame-ends-batch", func(t *testing.T) {
		rc := dialRaw(t, addr)
		second := frame(2, server.OpPing)
		rc.send(append(frame(1, server.OpPing), second[:5]...))
		rc.c.SetReadDeadline(time.Now().Add(time.Second))
		id, status, _, _, err := server.ReadFrame(rc.c, server.DefaultMaxFrame, nil)
		if err != nil || id != 1 || status != server.StatusOK {
			t.Fatalf("response 1 did not arrive within 1s of a partial frame 2: id=%d status=%#x err=%v", id, status, err)
		}
		rc.send(second[5:])
		if id, status, _, err := rc.read(); err != nil || id != 2 || status != server.StatusOK {
			t.Fatalf("want id 2 OK, got id=%d status=%#x err=%v", id, status, err)
		}
	})

	t.Run("responses-beyond-one-batch", func(t *testing.T) {
		rc := dialRaw(t, addr)
		val := make([]byte, 1<<10)
		for i := range val {
			val[i] = byte(i)
		}
		rc.send(frame(1, server.OpSet, []byte("big"), val))
		if _, status, _, err := rc.read(); err != nil || status != server.StatusOK {
			t.Fatalf("set: status=%#x err=%v", status, err)
		}
		const n = 2000 // ~2 MiB of responses: many 64 KiB batches
		var burst []byte
		for i := uint64(0); i < n; i++ {
			burst = append(burst, frame(i+2, server.OpGet, []byte("big"))...)
		}
		sent := make(chan error, 1)
		go func() { _, err := rc.c.Write(burst); sent <- err }()
		for i := uint64(0); i < n; i++ {
			id, status, body, err := rc.read()
			if err != nil || id != i+2 || status != server.StatusOK || string(body) != string(val) {
				t.Fatalf("answer %d: id=%d status=%#x len=%d err=%v", i, id, status, len(body), err)
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	})
}

// TestPipelinedGetAllocs pins what a pipelined GET allocates, server and
// client together in this process: nothing. The client's frames are
// encoded once and its reads go into one buffer. A length word read
// into a local array escaped through the io.Reader, one allocation per
// ReadFrame call on each side, and read 2; a response frame allocated
// per request, and grown from nil, read 5.
func TestPipelinedGetAllocs(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	rc := dialRaw(t, addr)
	rc.send(frame(1, server.OpSet, []byte("k"), []byte("value")))
	if _, status, _, err := rc.read(); err != nil || status != server.StatusOK {
		t.Fatalf("set: status=%#x err=%v", status, err)
	}
	const depth, n = 16, 4096
	var round []byte
	for i := uint64(0); i < depth; i++ {
		round = append(round, frame(i, server.OpGet, []byte("k"))...)
	}
	var buf []byte
	pipeline := func(rounds int) {
		for r := 0; r < rounds; r++ {
			rc.send(round)
			for i := uint64(0); i < depth; i++ {
				var id uint64
				var status byte
				var err error
				id, status, _, buf, err = server.ReadFrame(rc.c, server.DefaultMaxFrame, buf)
				if err != nil || id != i || status != server.StatusOK {
					t.Fatalf("round %d answer %d: id=%d status=%#x err=%v", r, i, id, status, err)
				}
			}
		}
	}
	rc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	pipeline(16) // warm the session's buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pipeline(n / depth)
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f mallocs per pipelined GET", perReq)
	if perReq > 0.01 {
		t.Fatalf("%.3f mallocs per pipelined GET, want 0", perReq)
	}
}
