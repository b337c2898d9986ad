package main

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/rng"
	"repro/internal/zipfgen"
)

// Everything the workloads feed the program is derived from -seed here,
// before any timing starts: key bytes, values, and per-generator op
// streams. The program under test only ever sees these operations.

const (
	valLen  = 32
	zipfS   = 0.99
	setFlag = 1 << 31 // top bit of an op word marks a write
)

// mix is the splitmix64 finalizer, a bijection on uint64: distinct ids
// give distinct keys, and a key's bytes are unrelated to its Zipf rank.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// keyWord is the 64-bit key of id under seed.
func keyWord(seed, id uint64) uint64 {
	return mix(id*0x9E3779B97F4A7C15 + seed)
}

// keyBytes renders a key word as the 8 bytes sent on the wire.
func keyBytes(w uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, w)
}

// valueFor builds the 32-byte value stored under key word w: the key's
// own 8 bytes, then 24 bytes derived from them. A reader that knows the
// key can therefore check any value it is handed.
func valueFor(w uint64) []byte {
	var v [valLen]byte
	fillValue(&v, w)
	return v[:]
}

// fillValue writes valueFor(w) into a caller's buffer.
func fillValue(dst *[valLen]byte, w uint64) {
	binary.BigEndian.PutUint64(dst[:], w)
	x := w
	for off := 8; off < valLen; off += 8 {
		x = mix(x + 1)
		binary.BigEndian.PutUint64(dst[off:], x)
	}
}

// validValue reports whether v is a value this benchmark could have
// stored under key word w: right length, and it opens with the key.
func validValue(w uint64, v []byte) bool {
	return len(v) == valLen && binary.BigEndian.Uint64(v) == w
}

// opStream draws n op words for generator g: a Zipf(0.99) rank in
// [0, universe) in the low bits, setFlag on a writePct share of them.
func opStream(seed uint64, g, n int, universe uint64, writePct int) []uint32 {
	src := rng.NewSplitMix64(mix(seed ^ uint64(g+1)*0xD1B54A32D192ED03))
	z := zipfgen.New(universe, zipfS, src)
	ops := make([]uint32, n)
	for i := range ops {
		w := uint32(z.Next() - 1)
		if src.Uint64n(100) < uint64(writePct) {
			w |= setFlag
		}
		ops[i] = w
	}
	return ops
}

// streamHash fingerprints op streams; tests use it to pin "same seed,
// same inputs".
func streamHash(streams ...[]uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, s := range streams {
		for _, w := range s {
			binary.LittleEndian.PutUint32(b[:], w)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
