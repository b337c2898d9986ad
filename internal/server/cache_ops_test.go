package server_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	growt "repro"
	"repro/internal/server"
	"repro/internal/server/client"
)

// startCacheServer is startServer with cache-layer options threaded
// through the store (the growd -default-ttl/-max-entries path).
func startCacheServer(t *testing.T, opt server.Options, opts ...growt.Option) (*server.Server, string) {
	t.Helper()
	st := server.NewStore(opts...)
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

// TestSetExAndTTL drives the per-entry TTL lifecycle over the wire:
// SETEX → TTL countdown → expiry reads as NOT_FOUND everywhere.
func TestSetExAndTTL(t *testing.T) {
	srv, addr := startCacheServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.SetEx([]byte("k"), []byte("v"), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("pre-expiry get = %q, %v, %v", v, ok, err)
	}
	if ttl, ok, err := cl.TTL([]byte("k")); err != nil || !ok || ttl <= 0 || ttl > 300*time.Millisecond {
		t.Fatalf("ttl = %v, %v, %v", ttl, ok, err)
	}
	// An immortal entry answers the sentinel (< 0 through the client).
	cl.Set([]byte("forever"), []byte("v"))
	if ttl, ok, err := cl.TTL([]byte("forever")); err != nil || !ok || ttl >= 0 {
		t.Fatalf("immortal ttl = %v, %v, %v", ttl, ok, err)
	}
	// TTL of an absent key: NOT_FOUND, not an error.
	if _, ok, err := cl.TTL([]byte("nope")); err != nil || ok {
		t.Fatalf("absent ttl ok=%v err=%v", ok, err)
	}

	// Past the deadline every read path reports absence.
	time.Sleep(400 * time.Millisecond)
	if v, ok, _ := cl.Get([]byte("k")); ok {
		t.Fatalf("expired key observable over the wire: %q", v)
	}
	if _, ok, _ := cl.TTL([]byte("k")); ok {
		t.Fatal("expired key has a TTL")
	}
	if ok, _ := cl.Del([]byte("k")); ok {
		t.Fatal("expired key deletable as live")
	}
	st := srv.Stats()
	if st.PerOp["setex"] != 1 || st.PerOp["ttl"] != 4 || st.Expired == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExpireOverWire: EXPIRE re-deadlines live keys, refuses absent and
// expired ones.
func TestExpireOverWire(t *testing.T) {
	_, addr := startCacheServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.Set([]byte("k"), []byte("v"))
	if ok, err := cl.Expire([]byte("k"), 250*time.Millisecond); err != nil || !ok {
		t.Fatalf("expire live = %v, %v", ok, err)
	}
	if ttl, ok, _ := cl.TTL([]byte("k")); !ok || ttl <= 0 {
		t.Fatalf("ttl after expire = %v, %v", ttl, ok)
	}
	if ok, err := cl.Expire([]byte("absent"), time.Second); err != nil || ok {
		t.Fatalf("expire absent = %v, %v", ok, err)
	}
	time.Sleep(350 * time.Millisecond)
	if ok, _ := cl.Expire([]byte("k"), time.Hour); ok {
		t.Fatal("EXPIRE revived an expired key")
	}
	if _, ok, _ := cl.Get([]byte("k")); ok {
		t.Fatal("expired key observable after refused revival")
	}
}

// TestDefaultTTLOverWire: a growd-style default TTL applies to SET and
// MSET; SETEX still overrides per entry.
func TestDefaultTTLOverWire(t *testing.T) {
	_, addr := startCacheServer(t, server.Options{}, growt.WithTTL(250*time.Millisecond))
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.Set([]byte("short"), []byte("v"))
	if err := cl.SetEx([]byte("long"), []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := cl.MSet([2][]byte{[]byte("m1"), []byte("v")}, [2][]byte{[]byte("m2"), []byte("v")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	for _, k := range []string{"short", "m1", "m2"} {
		if _, ok, _ := cl.Get([]byte(k)); ok {
			t.Fatalf("default TTL not applied to %q", k)
		}
	}
	if v, ok, _ := cl.Get([]byte("long")); !ok || string(v) != "v" {
		t.Fatalf("SETEX override lost: %q, %v", v, ok)
	}
}

// TestMGetPartialMiss: a batch spanning present, absent, expired, and
// empty-valued keys answers per-key verdicts in one OK frame.
func TestMGetPartialMiss(t *testing.T) {
	srv, addr := startCacheServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.Set([]byte("a"), []byte("va"))
	cl.Set([]byte("empty"), []byte{})
	cl.SetEx([]byte("dying"), []byte("vd"), 100*time.Millisecond)
	time.Sleep(200 * time.Millisecond)

	vals, err := cl.MGet([]byte("a"), []byte("missing"), []byte("dying"), []byte("empty"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("MGET returned %d entries", len(vals))
	}
	if string(vals[0]) != "va" {
		t.Fatalf("vals[0] = %q", vals[0])
	}
	if vals[1] != nil {
		t.Fatalf("absent key answered %q", vals[1])
	}
	if vals[2] != nil {
		t.Fatalf("expired key answered %q", vals[2])
	}
	if vals[3] == nil || len(vals[3]) != 0 {
		t.Fatalf("present-empty value = %v", vals[3])
	}
	// Zero-key batch is legal and answers an empty OK.
	if vals, err := cl.MGet(); err != nil || len(vals) != 0 {
		t.Fatalf("empty MGET = %v, %v", vals, err)
	}
	if st := srv.Stats(); st.PerOp["mget"] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMSetRoundTrip: a batch store lands atomically-per-key and reads
// back through both GET and MGET.
func TestMSetRoundTrip(t *testing.T) {
	srv, addr := startCacheServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var pairs [][2][]byte
	var keys [][]byte
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		pairs = append(pairs, [2][]byte{k, []byte(fmt.Sprintf("v%03d", i))})
		keys = append(keys, k)
	}
	if err := cl.MSet(pairs...); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.MGet(keys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := fmt.Sprintf("v%03d", i); string(v) != want {
			t.Fatalf("vals[%d] = %q, want %q", i, v, want)
		}
	}
	if st := srv.Stats(); st.PerOp["mset"] != 1 || st.Hits != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMalformedBatchFrames: truncated batch bodies are terminal protocol
// errors, and a malformed MSET applies none of its pairs.
func TestMalformedBatchFrames(t *testing.T) {
	srv, addr := startCacheServer(t, server.Options{})

	t.Run("mget-count-overruns-body", func(t *testing.T) {
		rc := dialRaw(t, addr)
		f := server.BeginFrame(nil, 3, server.OpMGet)
		f = server.AppendUint32(f, 5) // claims 5 keys, carries 1
		f = server.AppendBytes(f, []byte("k"))
		rc.send(server.EndFrame(f, 0))
		id, status, _, err := rc.read()
		if err != nil || status != server.StatusErr || id != 3 {
			t.Fatalf("want StatusErr id 3, got id=%d status=%#x err=%v", id, status, err)
		}
		if _, _, _, err := rc.read(); err == nil {
			t.Fatal("connection stayed open after malformed batch")
		}
	})

	t.Run("mset-truncated-pair-applies-nothing", func(t *testing.T) {
		rc := dialRaw(t, addr)
		f := server.BeginFrame(nil, 4, server.OpMSet)
		f = server.AppendUint32(f, 2) // two pairs claimed
		f = server.AppendBytes(f, []byte("applied?"))
		f = server.AppendBytes(f, []byte("v"))
		f = server.AppendBytes(f, []byte("half")) // second pair missing its value
		rc.send(server.EndFrame(f, 0))
		if _, status, _, err := rc.read(); err != nil || status != server.StatusErr {
			t.Fatalf("want StatusErr, got status=%#x err=%v", status, err)
		}
	})

	// The intact first pair of the malformed MSET must not have landed.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, ok, _ := cl.Get([]byte("applied?")); ok {
		t.Fatal("malformed MSET applied its parsed prefix")
	}
	if srv.Stats().ProtocolErrs < 2 {
		t.Fatalf("protocol errors not counted: %+v", srv.Stats())
	}
}

// TestMGetReplyCap: a batch whose found values would overflow the frame
// cap answers a per-request error — the session survives, and no peer
// enforcing the same cap ever sees an oversized frame.
func TestMGetReplyCap(t *testing.T) {
	_, addr := startCacheServer(t, server.Options{MaxFrame: 4096})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var keys [][]byte
	big := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("big%d", i))
		if err := cl.Set(k, big); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if _, err := cl.MGet(keys...); err == nil {
		t.Fatal("10 KB MGET reply fit a 4 KiB frame cap")
	}
	// Non-fatal: the session keeps serving, and a smaller batch works.
	if err := cl.Ping(); err != nil {
		t.Fatalf("session died after refused MGET: %v", err)
	}
	if vals, err := cl.MGet(keys[:2]...); err != nil || len(vals) != 2 {
		t.Fatalf("small batch after refusal = %v, %v", len(vals), err)
	}
}

// TestSubMillisecondTTLRoundsUp: a positive TTL below the wire's
// millisecond resolution must round up to 1ms, not truncate to
// "immortal".
func TestSubMillisecondTTLRoundsUp(t *testing.T) {
	_, addr := startCacheServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.SetEx([]byte("blink"), []byte("v"), 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	// The entry must carry a real deadline (not the immortal sentinel)...
	if ttl, ok, err := cl.TTL([]byte("blink")); err != nil {
		t.Fatal(err)
	} else if ok && ttl < 0 {
		t.Fatal("sub-ms TTL stored as immortal")
	}
	// ...and actually die.
	time.Sleep(50 * time.Millisecond)
	if _, ok, _ := cl.Get([]byte("blink")); ok {
		t.Fatal("sub-ms TTL entry still alive after 50ms")
	}
}

// TestSaturatingTTLOverWire: the wire carries a TTL as a u64 of
// milliseconds, so a client may send one far past the end of the cache's
// nanosecond clock. The server saturates it, and the cache must read the
// saturated duration as "never" — not as a deadline that wrapped into
// the past, which stored the SETEX born expired and had EXPIRE kill the
// key it was asked to keep.
func TestSaturatingTTLOverWire(t *testing.T) {
	_, addr := startCacheServer(t, server.Options{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	raw := dialRaw(t, addr)
	const ttl = ^uint64(0) >> 1
	send := func(what string, id uint64, kind byte, fields ...[]byte) {
		t.Helper()
		f := server.BeginFrame(nil, id, kind)
		for _, b := range fields {
			f = server.AppendBytes(f, b)
		}
		raw.send(server.EndFrame(server.AppendUint64(f, ttl), 0))
		if _, status, _, err := raw.read(); err != nil || status != server.StatusOK {
			t.Fatalf("%s with ttl %d: status %#x, %v", what, ttl, status, err)
		}
	}
	live := func(after string, key string) {
		t.Helper()
		if v, ok, err := cl.Get([]byte(key)); err != nil || !ok || string(v) != "v" {
			t.Fatalf("after %s: get = %q, %v, %v", after, v, ok, err)
		}
		if d, ok, err := cl.TTL([]byte(key)); err != nil || !ok || d <= 0 {
			t.Fatalf("after %s: ttl = %v, %v, %v", after, d, ok, err)
		}
	}
	send("SETEX", 1, server.OpSetEx, []byte("born"), []byte("v"))
	live("SETEX", "born")
	cl.Set([]byte("kept"), []byte("v"))
	send("EXPIRE", 2, server.OpExpire, []byte("kept"))
	live("EXPIRE", "kept")
}

// TestEvictionOverWire: a growd-style entry budget holds under a wire
// workload and surfaces through the evicted counter.
func TestEvictionOverWire(t *testing.T) {
	const budget = 64
	srv, addr := startCacheServer(t, server.Options{}, growt.WithMaxEntries(budget))
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 8*budget; i++ {
		if err := cl.Set([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 16)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cl.Size()
	if err != nil {
		t.Fatal(err)
	}
	// The server's named-string keys ride the exact-counting generic
	// route; allow only the per-write eviction bound as slack.
	if n > budget+8 {
		t.Fatalf("size %d blew the budget %d", n, budget)
	}
	if st := srv.Stats(); st.Evicted == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

// TestEvictingSetAllocs pins what an over-budget Set allocates on the
// served cache, instantiated over the server's Key as growd builds it:
// the item and the map's entry. The eviction it triggers allocates
// nothing; a SplitMix64 taken by pointer there, not inlined into this
// instantiation, heap-allocated 16 B per eviction and read 3.
func TestEvictingSetAllocs(t *testing.T) {
	const budget = 1024
	st := server.NewStore(growt.WithMaxEntries(budget))
	defer st.Close()
	keys := make([]server.Key, 4*budget)
	for i := range keys {
		keys[i] = server.Key(fmt.Sprintf("k%05d", i))
	}
	next := 0
	for ; next < 2*budget; next++ {
		st.C.Set(keys[next], "v")
	}
	allocs := testing.AllocsPerRun(budget, func() {
		evicted := st.C.Stats().Evicted
		st.C.Set(keys[next], "v")
		next++
		if st.C.Stats().Evicted != evicted+1 {
			t.Fatal("over-budget Set did not evict exactly one entry")
		}
	})
	if allocs > 2 {
		t.Fatalf("%v allocs per evicting Set, want at most 2", allocs)
	}
}
