package trace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

// newRingShards builds a ring with a known shard count regardless of
// the machine the test runs on, by pinning GOMAXPROCS around the
// constructor (shard count is fixed at construction).
func newRingShards(t *testing.T, shards, perShard int) *Ring {
	t.Helper()
	old := runtime.GOMAXPROCS(shards)
	r := NewRing(perShard)
	runtime.GOMAXPROCS(old)
	if len(r.shards) != shards {
		t.Fatalf("shard count = %d, want %d", len(r.shards), shards)
	}
	return r
}

// TestFlightRecorderWraparound pins the oldest-overwrite semantics: a
// single-shard ring of 64 slots receiving 256 events retains exactly
// the newest 64, in append (= time) order.
func TestFlightRecorderWraparound(t *testing.T) {
	r := newRingShards(t, 1, 64)
	const total = 256
	for i := 0; i < total; i++ {
		r.Append(KindExecEnd, uint64(i), uint64(i)+1, 0)
	}
	evs := r.Drain()
	if len(evs) != 64 {
		t.Fatalf("drained %d events, want 64", len(evs))
	}
	for i, e := range evs {
		want := uint64(total - 64 + i)
		if e.A0 != want {
			t.Errorf("event %d: A0 = %d, want %d (oldest must be overwritten)", i, e.A0, want)
		}
		if i > 0 && e.TS < evs[i-1].TS {
			t.Errorf("event %d: TS %d precedes predecessor %d", i, e.TS, evs[i-1].TS)
		}
	}
}

// TestFlightRecorderConcurrent hammers one ring from many writers
// while a reader drains in a loop. Every drained record must satisfy
// the writers' invariant (A1 = A0+1, A2 = A0 XOR magic) — a torn read
// mixing two records would break it — and every drain must come back
// time-ordered. Run under -race this also proves the seqlock protocol
// is data-race clean.
func TestFlightRecorderConcurrent(t *testing.T) {
	const magic = 0x9E3779B97F4A7C15
	r := NewRing(256)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 20000; i++ {
				a0 := uint64(g)<<32 | uint64(i)
				r.Append(KindMigArm, a0, a0+1, a0^magic)
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Drain()
			for i, e := range evs {
				if e.Kind != KindMigArm {
					t.Errorf("drained kind %d, want %d", e.Kind, KindMigArm)
				}
				if e.A1 != e.A0+1 || e.A2 != e.A0^magic {
					t.Errorf("torn record: A0=%x A1=%x A2=%x", e.A0, e.A1, e.A2)
				}
				if i > 0 && e.TS < evs[i-1].TS {
					t.Errorf("drain not time-ordered at %d: %d < %d", i, e.TS, evs[i-1].TS)
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestFlightRecorderAppendAllocs pins the hot-path contract: Append,
// AppendAt (and the package-level Emit) never allocate.
func TestFlightRecorderAppendAllocs(t *testing.T) {
	r := NewRing(256)
	if n := testing.AllocsPerRun(1000, func() {
		r.Append(KindMigCopySlice, 1, 2, 3)
	}); n != 0 {
		t.Fatalf("Append allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.AppendAt(Now(), KindExecEnd, 1, 2, 3)
	}); n != 0 {
		t.Fatalf("AppendAt allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		Emit(KindSweepSlice, 4, 5, 6)
	}); n != 0 {
		t.Fatalf("Emit allocates %v per run, want 0", n)
	}
}

// TestFlightRecorderKindNames checks every enum member decodes to a
// distinct nonempty name and out-of-range values (including the
// reserved zero) decode to "".
func TestFlightRecorderKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindExecEnd; k <= KindEvictStorm; k++ {
		name := KindName(k)
		if name == "" {
			t.Errorf("kind %d has no name", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := KindName(0); got != "" {
		t.Errorf("KindName(0) = %q, want empty", got)
	}
	if got := KindName(KindEvictStorm + 1); got != "" {
		t.Errorf("KindName(out of range) = %q, want empty", got)
	}
}

// TestFlightRecorderWriteJSON checks the rendered drain is well-formed
// JSON carrying kind names.
func TestFlightRecorderWriteJSON(t *testing.T) {
	r := newRingShards(t, 1, 64)
	ts := Now()
	r.AppendAt(ts, KindExecEnd, 7, 0, 1500)
	r.Append(KindMigFlip, 4096, 2, 0)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Drain()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out []struct {
		TS   int64  `json:"ts_nanos"`
		Kind string `json:"kind"`
		A0   uint64 `json:"a0"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("rendered drain is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 {
		t.Fatalf("rendered %d events, want 2", len(out))
	}
	if out[0].Kind != "exec_end" || out[1].Kind != "mig_flip" {
		t.Errorf("kinds = %q, %q; want exec_end, mig_flip", out[0].Kind, out[1].Kind)
	}
	if out[0].TS != ts {
		t.Errorf("AppendAt event stamped %d, want the given %d", out[0].TS, ts)
	}
	if out[0].TS > out[1].TS {
		t.Errorf("events out of order: %d > %d", out[0].TS, out[1].TS)
	}
}
