package server

import (
	"testing"
)

// TestSlowLogInsertAllocs pins the hot-path contract: insert never
// allocates (it runs on the request path whenever the threshold
// trips, and a tight threshold must not turn the recorder into an
// allocation source).
func TestSlowLogInsertAllocs(t *testing.T) {
	var l slowLog
	if n := testing.AllocsPerRun(1000, func() {
		l.insert(123456789, OpSet, 42, 0xfeed, 2, 1_500_000)
	}); n != 0 {
		t.Fatalf("slowlog insert allocates %v per run, want 0", n)
	}
}

// TestSlowLogWraparound pins oldest-overwrite: inserting far more than
// slowLogSlots entries retains exactly the newest slowLogSlots, in
// timestamp order.
func TestSlowLogWraparound(t *testing.T) {
	var l slowLog
	const total = slowLogSlots*2 + 40
	for i := 0; i < total; i++ {
		l.insert(int64(i), OpGet, uint64(i), 0, 0, 1)
	}
	es := l.snapshot()
	if len(es) != slowLogSlots {
		t.Fatalf("snapshot has %d entries, want %d", len(es), slowLogSlots)
	}
	for i, e := range es {
		want := uint64(total - slowLogSlots + i)
		if e.ID != want {
			t.Errorf("entry %d: ID = %d, want %d", i, e.ID, want)
		}
		if e.Op != "get" {
			t.Errorf("entry %d: Op = %q, want get", i, e.Op)
		}
	}
}

// TestSlowLogKeyOfRequest checks the best-effort key re-extraction per
// opcode shape: single-key ops yield their first field, batches their
// first key, keyless ops nil.
func TestSlowLogKeyOfRequest(t *testing.T) {
	key := []byte("the-key")
	single := AppendBytes(nil, key)
	batch := AppendBytes(AppendUint32(nil, 2), key)
	cases := []struct {
		name string
		kind byte
		body []byte
		want string
	}{
		{"get", OpGet, single, "the-key"},
		{"set", OpSet, AppendBytes(single, []byte("v")), "the-key"},
		{"incr", OpIncr, AppendUint64(single, 1), "the-key"},
		{"mget", OpMGet, batch, "the-key"},
		{"mset", OpMSet, AppendBytes(batch, []byte("v")), "the-key"},
		{"empty-mget", OpMGet, AppendUint32(nil, 0), ""},
		{"ping", OpPing, nil, ""},
		{"stats", OpStats, nil, ""},
		{"slowlog", OpSlowLog, nil, ""},
	}
	for _, c := range cases {
		if got := string(keyOfRequest(c.kind, c.body)); got != c.want {
			t.Errorf("%s: keyOfRequest = %q, want %q", c.name, got, c.want)
		}
	}
}
