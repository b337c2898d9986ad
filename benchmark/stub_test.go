package main

import (
	"testing"
	"time"

	"repro/internal/server/client"
)

func TestStubAnswersTheRealClient(t *testing.T) {
	s, err := startStub()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(s.addr())
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get([]byte("any key"))
	if err != nil || !ok || len(v) != valLen {
		t.Errorf("GET = %d bytes, %t, %v; want %d bytes, true, nil", len(v), ok, err, valLen)
	}
	if err := cl.Set([]byte("k"), []byte("v")); err != nil {
		t.Errorf("SET: %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Errorf("PING: %v", err)
	}
	cl.Close()
	s.close() // returns only once the connection's goroutine has ended
}

func TestStubProbePipelines(t *testing.T) {
	rtt, perOp := stubProbe(50, keyBytes(1))
	if rtt <= 0 || perOp <= 0 {
		t.Errorf("stubProbe = %g us, %g ns/op; want both positive", rtt, perOp)
	}
}

func TestTickerCountsMissedPeriods(t *testing.T) {
	const period = 200 * time.Microsecond
	tk, err := newTicker(int64(period), int64(period))
	if err != nil {
		t.Fatal(err)
	}
	defer tk.close()
	start := time.Now()
	time.Sleep(5 * time.Millisecond) // several periods pass unread
	var ticks uint64
	for ticks < 50 {
		n, err := tk.wait()
		if err != nil {
			t.Fatal(err)
		}
		ticks += n
	}
	// Every elapsed period was delivered exactly once, late or not.
	elapsed := uint64(time.Since(start) / period)
	if ticks > elapsed+1 || ticks+1 < elapsed {
		t.Errorf("%d ticks in %d periods", ticks, elapsed)
	}
}
