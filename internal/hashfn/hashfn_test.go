package hashfn

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	for _, k := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		if Hash64(k) != Hash64(k) {
			t.Fatalf("Hash64 not deterministic for %d", k)
		}
	}
}

// hashPath is one way this build computes Hash64.
type hashPath struct {
	name string
	f    func(uint64) uint64
}

// TestHash64IsCRC32C: every path — Hash64 as dispatched, the table loop
// called directly, and on amd64 the CRC32Q instructions and their jump to
// the loop — must compute what crc32.Update computes over the key's 8
// little-endian bytes, without allocating.
func TestHash64IsCRC32C(t *testing.T) {
	keys := []uint64{0, 1, 1 << 63, math.MaxUint64, 1<<63 - 2} // the last is core.MaxKey
	for k := uint64(0); k < 100000; k++ {
		keys = append(keys, k*0x9E3779B97F4A7C15)
	}
	paths := append([]hashPath{{"Hash64", Hash64}, {"loop", crcPairLoop}}, archPaths(t)...)
	for _, p := range paths {
		for _, x := range keys {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], x)
			want := uint64(crc32.Update(seedHi, castagnoli, b[:]))<<32 | uint64(crc32.Update(seedLo, castagnoli, b[:]))
			if got := p.f(x); got != want {
				t.Fatalf("%s(%#x) = %#x, crc32.Update gives %#x", p.name, x, got, want)
			}
		}
		if n := testing.AllocsPerRun(1000, func() { p.f(42) }); n != 0 {
			t.Fatalf("%s allocates %v times per call", p.name, n)
		}
	}
}

func TestHash64HalvesDiffer(t *testing.T) {
	// The two CRC passes use different seeds, so the upper and lower 32
	// bits must not be identical for typical keys.
	same := 0
	for k := uint64(0); k < 1000; k++ {
		h := Hash64(k)
		if uint32(h>>32) == uint32(h) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("upper==lower halves for %d/1000 keys", same)
	}
}

func TestHash64Collisions(t *testing.T) {
	// Sequential keys must produce essentially collision-free 64-bit
	// hashes at this scale.
	seen := make(map[uint64]uint64, 1<<16)
	for k := uint64(0); k < 1<<16; k++ {
		h := Hash64(k)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Hash64(%d)==Hash64(%d)==%#x", k, prev, h)
		}
		seen[h] = k
	}
}

// TestHash64HighBitsSpread: tables index with the TOP bits (scaled
// mapping, §5.3.1), so the top byte must be well distributed even for
// sequential keys.
func TestHash64HighBitsSpread(t *testing.T) {
	var buckets [256]int
	const n = 1 << 16
	for k := uint64(0); k < n; k++ {
		buckets[Hash64(k)>>56]++
	}
	expect := float64(n) / 256
	for b, c := range buckets {
		if float64(c) < expect/2 || float64(c) > expect*2 {
			t.Errorf("top-byte bucket %d has %d entries (expect ~%f)", b, c, expect)
		}
	}
}

func TestAvalancheBijective(t *testing.T) {
	// The finalizer is a bijection: no collisions on a sample, and it is
	// invertible in principle. We check injectivity on a window.
	seen := make(map[uint64]bool, 1<<16)
	for k := uint64(0); k < 1<<16; k++ {
		h := Avalanche(k)
		if seen[h] {
			t.Fatalf("avalanche collision at %d", k)
		}
		seen[h] = true
	}
}

func TestAvalancheDiffusion(t *testing.T) {
	// Flipping one input bit should flip ~32 output bits on average.
	f := func(x uint64, bit uint8) bool {
		b := uint(bit) % 64
		d := Avalanche(x) ^ Avalanche(x^(1<<b))
		pop := 0
		for d != 0 {
			pop++
			d &= d - 1
		}
		return pop >= 8 && pop <= 56
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hash64(uint64(i))
	}
	_ = sink
}

func BenchmarkAvalanche(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Avalanche(uint64(i))
	}
	_ = sink
}
