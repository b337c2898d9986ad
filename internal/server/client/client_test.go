package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// startServer runs growd's server on a loopback listener for the test's
// lifetime and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	st := server.NewStore()
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
		st.Close()
	})
	return ln.Addr().String()
}

// startResponder runs a listener whose connections are handed to serve,
// one goroutine each, and returns its address. Cleanup closes the
// listener and waits for every serve to return.
func startResponder(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				serve(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// answerOK answers every request on nc in order, StatusOK with body,
// flushing when no further request is buffered, until the client goes
// away. It allocates nothing per request.
func answerOK(nc net.Conn, body []byte) {
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	var buf, out []byte
	for {
		id, _, _, nbuf, err := server.ReadFrame(br, server.DefaultMaxFrame, buf)
		buf = nbuf
		if err != nil {
			return
		}
		out = server.EndFrame(append(server.BeginFrame(out[:0], id, server.StatusOK), body...), 0)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}

// TestMixedCallsOneConn shares one connection between 8 goroutines that
// mix synchronous calls with async GETs and SETs, every goroutine on its
// own keys and values, and checks each answer against its own request.
// One connection runs requests in order, so a GET sent after a SET on it
// must see that SET, whichever API sent either.
func TestMixedCallsOneConn(t *testing.T) {
	cl, err := Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const goroutines, rounds = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var async sync.WaitGroup
			defer async.Wait()
			for i := 0; i < rounds; i++ {
				key := []byte(fmt.Sprintf("g%d-k%d", g, i))
				val := fmt.Sprintf("g%d-v%d-%s", g, i, make([]byte, i%40))
				akey := []byte(fmt.Sprintf("g%d-a%d", g, i))
				aval := fmt.Sprintf("g%d-av%d", g, i)
				if err := cl.Set(key, []byte(val)); err != nil {
					t.Errorf("Set %s: %v", key, err)
					return
				}
				async.Add(2)
				cl.GetAsync(key, func(r Resp) {
					defer async.Done()
					if r.Err != nil || r.Status != server.StatusOK || string(r.Val) != val {
						t.Errorf("GetAsync %s: status %#x val %q err %v, want %q", key, r.Status, r.Val, r.Err, val)
					}
				})
				cl.SetAsync(akey, []byte(aval), func(r Resp) {
					defer async.Done()
					if r.Err != nil || r.Status != server.StatusOK {
						t.Errorf("SetAsync %s: status %#x err %v", akey, r.Status, r.Err)
					}
				})
				if v, ok, err := cl.Get(akey); err != nil || !ok || string(v) != aval {
					t.Errorf("Get %s after SetAsync: %q %v %v, want %q", akey, v, ok, err, aval)
				}
				if n, err := cl.Incr([]byte(fmt.Sprintf("g%d-n", g)), uint64(g+1)); err != nil || n != uint64((i+1)*(g+1)) {
					t.Errorf("Incr g%d round %d: %d %v, want %d", g, i, n, err, (i+1)*(g+1))
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloseFailsPendingOnce leaves requests in flight, async and
// synchronous, and cuts the connection under them: every callback must
// fire exactly once, answered requests with their answer and the rest
// with ErrClosed. Both ends cut it: the client's Close under a server
// that never answers, and a server that answers half and hangs up.
func TestCloseFailsPendingOnce(t *testing.T) {
	const nAsync, nSync = 500, 8
	const total = nAsync + nSync
	for _, tc := range []struct {
		name     string
		answered int // requests answered before the server hangs up
		hangUp   bool
	}{
		{"client-Close", 0, false},
		{"server-hangs-up", total / 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := startResponder(t, func(nc net.Conn) {
				// Read every request before hanging up, so the close
				// sends a FIN behind the answers, not a reset.
				var buf, out []byte
				for n := 0; !tc.hangUp || n < total; n++ {
					id, _, _, nbuf, err := server.ReadFrame(nc, server.DefaultMaxFrame, buf)
					buf = nbuf
					if err != nil {
						return
					}
					if n < tc.answered {
						out = server.EndFrame(server.BeginFrame(out, id, server.StatusOK), len(out))
					}
				}
				nc.Write(out)
			})
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fired := make([]atomic.Int32, total)
			var ok, closed atomic.Int32
			record := func(i int, r Resp) {
				fired[i].Add(1)
				switch {
				case r.Err == nil && r.Status == server.StatusOK:
					ok.Add(1)
				case errors.Is(r.Err, ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("request %d: status %#x err %v", i, r.Status, r.Err)
				}
			}
			var done sync.WaitGroup
			done.Add(total)
			for i := 0; i < nAsync; i++ {
				cl.GetAsync([]byte("k"), func(r Resp) { record(i, r); done.Done() })
			}
			for i := nAsync; i < total; i++ {
				go func() {
					r := Resp{Err: cl.Ping()}
					if r.Err == nil {
						r.Status = server.StatusOK
					}
					record(i, r)
					done.Done()
				}()
			}
			if !tc.hangUp {
				// Close once every request waits for its answer.
				c := cl.conns[0]
				for {
					c.mu.Lock()
					n := c.q.n
					c.mu.Unlock()
					if n == total {
						break
					}
					runtime.Gosched()
				}
				cl.Close()
			}
			waitGroup(t, &done)
			for i := range fired {
				if n := fired[i].Load(); n != 1 {
					t.Errorf("request %d: callback fired %d times", i, n)
				}
			}
			if int(ok.Load()) != tc.answered || int(closed.Load()) != total-tc.answered {
				t.Errorf("%d answered and %d failed with ErrClosed, want %d and %d",
					ok.Load(), closed.Load(), tc.answered, total-tc.answered)
			}
			// A call on the dead connection fails before it returns.
			var after atomic.Int32
			cl.GetAsync([]byte("k"), func(r Resp) {
				if !errors.Is(r.Err, ErrClosed) {
					t.Errorf("GetAsync after close: %v", r.Err)
				}
				after.Add(1)
			})
			if after.Load() != 1 {
				t.Errorf("GetAsync after close fired %d times before returning", after.Load())
			}
		})
	}
}

// waitGroup waits for wg, failing the test after 10 s.
func waitGroup(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks still pending after 10 s")
	}
}

// TestClientAsyncAllocs pins what a pipelined async GET allocates on the
// client's side, against an in-test responder that allocates nothing
// per request: nothing. The request is framed straight into the
// connection's write buffer, its callback waits in a ring, and the
// answer is read through one buffer.
func TestClientAsyncAllocs(t *testing.T) {
	addr := startResponder(t, func(nc net.Conn) { answerOK(nc, make([]byte, 32)) })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const depth, n = 16, 8192
	completed := make(chan struct{}, depth)
	var failed atomic.Int32
	cb := func(r Resp) {
		if r.Err != nil || r.Status != server.StatusOK || len(r.Val) != 32 {
			failed.Add(1)
		}
		completed <- struct{}{}
	}
	key := []byte("key")
	pipeline := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < depth; i++ {
				cl.GetAsync(key, cb)
			}
			for i := 0; i < depth; i++ {
				<-completed
			}
		}
	}
	pipeline(64) // grow the ring and the buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pipeline(n / depth)
	runtime.ReadMemStats(&after)
	if failed.Load() != 0 {
		t.Fatalf("%d wrong answers", failed.Load())
	}
	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f mallocs per pipelined async GET", perReq)
	if perReq > 0.01 {
		t.Fatalf("%.3f mallocs per pipelined async GET, want 0", perReq)
	}
}

// TestMGetAllocs pins that what MGet allocates does not grow with the
// values it finds: they are sliced out of the one copy of the reply
// body, not copied out of it again each (which made one more per value,
// 64 more here). One allocation of slack: under -race, sync.Pool drops
// one Put in four, and a dropped waiter is made anew.
func TestMGetAllocs(t *testing.T) {
	const n = 64
	keys := make([][]byte, n)
	var found, missing []byte
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%02d", i))
		found = append(server.AppendUint32(append(found, 1), 8), fmt.Sprintf("value-%02d", i)...)
		missing = append(missing, 0)
	}
	allocs := func(body []byte, check func([][]byte)) float64 {
		addr := startResponder(t, func(nc net.Conn) { answerOK(nc, body) })
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		vals, err := cl.MGet(keys...)
		if err != nil || len(vals) != n {
			t.Fatalf("MGet = %d values, %v", len(vals), err)
		}
		check(vals)
		return testing.AllocsPerRun(200, func() { cl.MGet(keys...) })
	}
	none := allocs(missing, func(vals [][]byte) {
		for i, v := range vals {
			if v != nil {
				t.Fatalf("vals[%d] = %q for a missing key", i, v)
			}
		}
	})
	all := allocs(found, func(vals [][]byte) {
		for i, v := range vals {
			if string(v) != fmt.Sprintf("value-%02d", i) {
				t.Fatalf("vals[%d] = %q", i, v)
			}
		}
		if _ = append(vals[0], 'x'); string(vals[1]) != "value-01" {
			t.Fatalf("appending to vals[0] overwrote vals[1]: %q", vals[1])
		}
	})
	t.Logf("MGet of %d keys: %v allocs with none found, %v with all found", n, none, all)
	if all > none+1 {
		t.Fatalf("MGet allocates %v times with %d values found, %v with none", all, n, none)
	}
}

// TestDialReachesLateListener: a server that starts listening about 5 ms
// after Dial starts is connected within 20 ms. A dial refused at once is
// retried after 1 ms, then 2, 4, … up to 50 ms; with a flat 50 ms sleep
// after the first refusal this read 50 ms or more.
func TestDialReachesLateListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port is free again: dials are refused until it reopens

	start := time.Now()
	opened := make(chan net.Listener, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Error(err)
			close(opened)
			return
		}
		opened <- l
	}()
	cl, err := Dial(addr, WithDialWait(2*time.Second))
	took := time.Since(start)
	if l, ok := <-opened; ok {
		defer l.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if took > 20*time.Millisecond {
		t.Fatalf("Dial took %v for a listener opened 5 ms in, want ≤ 20 ms", took)
	}
}
