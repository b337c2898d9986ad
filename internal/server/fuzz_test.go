package server

// Native fuzz targets for the wire layer. Seeds mirror the fixture
// frames server_test.go drives over real connections: well-formed
// requests for every opcode plus the malformed shapes the rejection
// tests pin down (short frames, truncated bodies, trailing garbage).
// CI's fuzz-smoke job runs each target briefly; the committed corpus
// under testdata/fuzz replays as ordinary test cases on every `go
// test` run.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzFrame builds a complete frame from byte-string body fields, like
// server_test.go's frame helper.
func fuzzFrame(id uint64, kind byte, body ...[]byte) []byte {
	f := BeginFrame(nil, id, kind)
	for _, b := range body {
		f = AppendBytes(f, b)
	}
	return EndFrame(f, 0)
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must never panic, must reject announced lengths beyond the cap, and
// every frame it accepts must re-encode to exactly the bytes it read.
func FuzzReadFrame(f *testing.F) {
	f.Add(fuzzFrame(1, OpPing))
	f.Add(fuzzFrame(2, OpGet, []byte("k")))
	f.Add(fuzzFrame(3, OpSet, []byte("k"), []byte("v")))
	f.Add(fuzzFrame(4, OpCAS, []byte("k"), []byte("old"), []byte("new")))
	// Truncated mid-body, short length, oversized length.
	f.Add(fuzzFrame(5, OpGet, []byte("key"))[:10])
	f.Add([]byte{0, 0, 0, 3})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})

	const max = uint32(1 << 16)
	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, body, _, err := ReadFrame(bytes.NewReader(data), max, nil)
		if err != nil {
			return // rejected or truncated input: any error is fine, panics are not
		}
		if uint32(len(body)) > max {
			t.Fatalf("accepted a %d-byte body beyond the %d cap", len(body), max)
		}
		re := BeginFrame(nil, id, kind)
		re = append(re, body...)
		re = EndFrame(re, 0)
		if len(data) < len(re) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted frame does not round-trip:\nread  %x\nwrote %x", data[:min(len(data), len(re))], re)
		}
	})
}

// FuzzDecodeRequest throws arbitrary request bodies at the dispatcher:
// exec must never panic, and whatever it answers must itself be a
// well-formed frame echoing the request id with a known status. exec
// appends to a batch of earlier responses, so it runs after a prefix
// that must come back byte-identical, with exactly one frame after it
// — error paths included, which rewind to the prefix before answering.
func FuzzDecodeRequest(f *testing.F) {
	st := NewStore()
	f.Cleanup(func() { st.Close() })
	srv := New(st, Options{})
	cs := st.C.NewSession()
	f.Cleanup(cs.Close)

	add := func(fr []byte) {
		id := binary.BigEndian.Uint64(fr[4:])
		f.Add(id, fr[12], append([]byte(nil), fr[13:]...))
	}
	add(fuzzFrame(1, OpPing))
	add(fuzzFrame(2, OpGet, []byte("k")))
	add(fuzzFrame(3, OpSet, []byte("k"), []byte("v")))
	add(fuzzFrame(4, OpDel, []byte("k")))
	add(fuzzFrame(5, OpCAS, []byte("k"), []byte("old"), []byte("new")))
	add(fuzzFrame(7, OpSize))
	f.Add(uint64(6), OpIncr, append(AppendBytes(nil, []byte("ctr")), AppendUint64(nil, 3)...))
	f.Add(uint64(8), OpSetEx, append(fuzzFrame(0, 0, []byte("k"), []byte("v"))[13:], AppendUint64(nil, 500)...))
	f.Add(uint64(9), OpMGet, append(AppendUint32(nil, 1), AppendBytes(nil, []byte("k"))...))
	// The rejection shapes: unknown opcode, truncated field, trailing junk.
	f.Add(uint64(10), byte(0x7F), []byte(nil))
	f.Add(uint64(11), OpGet, AppendUint32(nil, 100))
	f.Add(uint64(12), OpPing, []byte{0xAA})

	prefix := fuzzFrame(99, StatusOK, []byte("earlier response"))
	f.Fuzz(func(t *testing.T, id uint64, kind byte, reqBody []byte) {
		batch, _ := srv.exec(cs, append([]byte(nil), prefix...), id, kind, reqBody)
		if len(batch) < len(prefix) || !bytes.Equal(batch[:len(prefix)], prefix) {
			t.Fatalf("exec changed the batch before its response:\nwant %x\ngot  %x", prefix, batch[:min(len(batch), len(prefix))])
		}
		frame := bytes.NewReader(batch[len(prefix):])
		rid, status, _, _, err := ReadFrame(frame, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatalf("exec produced an unreadable frame (%v): %x", err, batch[len(prefix):])
		}
		if frame.Len() != 0 {
			t.Fatalf("exec appended %d bytes past its response frame", frame.Len())
		}
		if rid != id {
			t.Fatalf("response id %d does not echo request id %d", rid, id)
		}
		switch status {
		case StatusOK, StatusNotFound, StatusMismatch, StatusErr:
		default:
			t.Fatalf("response carries unknown status %#x", status)
		}
	})
}

// FuzzBodyCursor drives the sticky body cursor directly with an
// arbitrary field script: it must never read out of bounds and must
// stay bad once bad.
func FuzzBodyCursor(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2})
	f.Add(AppendBytes(nil, []byte("k")), []byte{0})
	f.Add(AppendUint64(nil, 9), []byte{1, 2})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		p := body{b: data}
		wasBad := false
		for _, op := range script {
			switch op % 3 {
			case 0:
				p.bytesField()
			case 1:
				p.uint64Field()
			case 2:
				p.uint32Field()
			}
			if wasBad && !p.bad {
				t.Fatal("body cursor recovered from a parse failure; bad must be sticky")
			}
			wasBad = p.bad
		}
	})
}
