package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// TestMT19937ReferenceVector checks the generator against the published
// reference output of mt19937-64: seeding with init_by_array64
// {0x12345, 0x23456, 0x34567, 0x45678} must yield these first outputs.
func TestMT19937ReferenceVector(t *testing.T) {
	m := &MT19937{}
	m.SeedSlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	want := []uint64{
		7266447313870364031,
		4946485549665804864,
		16945909448695747420,
		16394063075524226720,
		4873882236456199058,
	}
	for i, w := range want {
		if g := m.Uint64(); g != w {
			t.Fatalf("output %d: got %d want %d", i, g, w)
		}
	}
}

func TestMT19937Determinism(t *testing.T) {
	a := NewMT19937(42)
	b := NewMT19937(42)
	for i := 0; i < 10000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestMT19937SeedSensitivity(t *testing.T) {
	a := NewMT19937(42)
	b := NewMT19937(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical outputs", same)
	}
}

func TestUint64nRange(t *testing.T) {
	m := NewMT19937(1)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := m.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	m := NewMT19937(7)
	const n = 10
	const draws = 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[m.Uint64n(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d deviates from %f", i, c, expect)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n==0")
		}
	}()
	NewMT19937(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	m := NewMT19937(3)
	s := NewSplitMix64(3)
	for i := 0; i < 100000; i++ {
		if f := m.Float64(); f < 0 || f >= 1 {
			t.Fatalf("MT Float64 out of [0,1): %f", f)
		}
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("SplitMix Float64 out of [0,1): %f", f)
		}
	}
}

func TestSplitMixKnownValues(t *testing.T) {
	// Reference values from the splitmix64 reference implementation
	// (Vigna), seed 0: first three outputs.
	s, v := NewSplitMix64(0), MakeSplitMix64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	for i, w := range want {
		if g := s.Uint64(); g != w {
			t.Fatalf("splitmix output %d: got %#x want %#x", i, g, w)
		}
		if g := v.Uint64(); g != w {
			t.Fatalf("MakeSplitMix64 output %d: got %#x want %#x", i, g, w)
		}
	}
}

func TestSplitMixUint64nRange(t *testing.T) {
	s := NewSplitMix64(9)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMixZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n==0")
		}
	}()
	NewSplitMix64(1).Uint64n(0)
}

// TestMT19937BitBalance: each of the 64 output bit positions should be set
// roughly half of the time.
func TestMT19937BitBalance(t *testing.T) {
	m := NewMT19937(99)
	const draws = 1 << 15
	var ones [64]int
	for i := 0; i < draws; i++ {
		v := m.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / draws
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("bit %d set fraction %f", b, frac)
		}
	}
}

func BenchmarkMT19937(b *testing.B) {
	m := NewMT19937(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Uint64()
	}
	_ = sink
}

func BenchmarkSplitMix64(b *testing.B) {
	s := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}
