package growt

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hashfn"
)

// TestDefaultHasherStringKinded: string-kinded keys — string itself and
// named string types, which used to fall into the reflect walk — hash
// through the unsafe fast path: no allocation, and equal keys with
// different backing arrays hash equal.
func TestDefaultHasherStringKinded(t *testing.T) {
	type label string
	hash := defaultHasher[label]()
	k := label("some-reasonably-long-key")
	if a := testing.AllocsPerRun(100, func() { hash(k) }); a != 0 {
		t.Fatalf("default hasher of a named string key allocates %v times per call", a)
	}
	if twin := label(strings.Clone(string(k))); hash(twin) != hash(k) {
		t.Fatal("equal keys hash differently")
	}
	if hash("") == hash(k) {
		t.Fatal("empty and non-empty key collide: the fast path ignores the key")
	}
}

// checkWidthCodec: toWord maps every sample to the word want names — the
// type's bytes zero-extended, which is what the cells have always held —
// fromWord maps it back, and a map with T as key and as value gives the
// samples back from Find and Range.
func checkWidthCodec[T comparable](t *testing.T, want func(T) uint64, samples ...T) {
	t.Helper()
	w := wordWidth[T]()
	if w != unsafe.Sizeof(samples[0]) {
		t.Fatalf("wordWidth[%T]() = %d", samples[0], w)
	}
	if !onWordRoute[T, T]() {
		t.Fatalf("New[%T, %[1]T] is not on the word route", samples[0])
	}
	m := New[T, T]()
	defer m.Close()
	h := m.Handle()
	model := make(map[T]T)
	for i, v := range samples {
		x := toWord(v, w)
		if x != want(v) {
			t.Errorf("toWord(%T(%v)) = %#x, want %#x", v, v, x, want(v))
		}
		if back := fromWord[T](x, w); back != v {
			t.Errorf("fromWord(toWord(%T(%v))) = %v", v, v, back)
		}
		val := samples[len(samples)-1-i]
		if _, dup := model[v]; h.Insert(v, val) == dup {
			t.Errorf("Insert(%T(%v)) = %v", v, v, dup)
		} else if !dup {
			model[v] = val
		}
	}
	for k, v := range model {
		if got, ok := h.Find(k); !ok || got != v {
			t.Errorf("Find(%T(%v)) = %v, %v, want %v", k, k, got, ok, v)
		}
	}
	seen := make(map[T]T)
	m.Range(func(k, v T) bool { seen[k] = v; return true })
	if !reflect.DeepEqual(seen, model) {
		t.Errorf("%T: Range gave %v, want %v", samples[0], seen, model)
	}
}

// TestWidthCodec pins the one bijection per width for the twelve types of
// the word route at zero, one, minimum, maximum and -1 — 0 and the
// all-ones pattern, the keys the core itself reserves, among them.
func TestWidthCodec(t *testing.T) {
	checkWidthCodec(t, func(v uint64) uint64 { return v }, 0, 1, math.MaxUint64)
	checkWidthCodec(t, func(v int64) uint64 { return uint64(v) }, 0, 1, math.MinInt64, math.MaxInt64, -1)
	checkWidthCodec(t, func(v uint) uint64 { return uint64(v) }, 0, 1, math.MaxUint)
	checkWidthCodec(t, func(v int) uint64 { return uint64(uint(v)) }, 0, 1, math.MinInt, math.MaxInt, -1)
	checkWidthCodec(t, func(v uintptr) uint64 { return uint64(v) }, 0, 1, ^uintptr(0))
	checkWidthCodec(t, func(v uint32) uint64 { return uint64(v) }, 0, 1, math.MaxUint32)
	checkWidthCodec(t, func(v int32) uint64 { return uint64(uint32(v)) }, 0, 1, math.MinInt32, math.MaxInt32, -1)
	checkWidthCodec(t, func(v uint16) uint64 { return uint64(v) }, 0, 1, math.MaxUint16)
	checkWidthCodec(t, func(v int16) uint64 { return uint64(uint16(v)) }, 0, 1, math.MinInt16, math.MaxInt16, -1)
	checkWidthCodec(t, func(v uint8) uint64 { return uint64(v) }, 0, 1, math.MaxUint8)
	checkWidthCodec(t, func(v int8) uint64 { return uint64(uint8(v)) }, 0, 1, math.MinInt8, math.MaxInt8, -1)
	checkWidthCodec(t, func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}, false, true)
	for _, wide := range []uintptr{wordWidth[string](), wordWidth[float64](), wordWidth[*int](), wordWidth[struct{}](), wordWidth[[]byte]()} {
		if wide != 0 {
			t.Errorf("wordWidth of a type that is no built-in integer or bool = %d", wide)
		}
	}
}

// checkEscape: an 8-byte value stays inline up to 2^61-1; the escaping
// ones sit behind the arena, where equality is decided on decoded values,
// not on slot references — CompareAndSwap takes them in and out.
func checkEscape[V comparable](t *testing.T, inline V, escaping ...V) {
	t.Helper()
	c := valCodecFor[V](wordWidth[V]())
	if x, ok := c.tryEnc(inline); !ok || x != directValMax {
		t.Errorf("tryEnc(%T(%v)) = %#x, %v, want 2^61-1 inline", inline, inline, x, ok)
	}
	for _, v := range escaping {
		if _, ok := c.tryEnc(v); ok {
			t.Errorf("tryEnc(%T(%v)) stays inline", v, v)
		}
		if x := c.enc(v); x&escapeBit == 0 || c.dec(x) != v {
			t.Errorf("%T(%v) encodes to %#x, which decodes to %v", v, v, x, c.dec(x))
		}
		swapInAndOut(t, inline, v)
	}
}

func swapInAndOut[V comparable](t *testing.T, inline, escaped V) {
	t.Helper()
	m := New[uint64, V]()
	defer m.Close()
	m.Store(7, inline)
	if !m.CompareAndSwap(7, inline, escaped) {
		t.Errorf("CompareAndSwap(%v -> %v) refused", inline, escaped)
	}
	if got, _ := m.Load(7); got != escaped {
		t.Errorf("Load = %v after CompareAndSwap to %v", got, escaped)
	}
	if m.CompareAndSwap(7, inline, escaped) || !m.CompareAndSwap(7, escaped, inline) || m.CompareAndSwap(7, escaped, inline) {
		t.Errorf("CompareAndSwap on the escaped %T(%v): stale old accepted or current old refused", escaped, escaped)
	}
}

func TestWidthCodecEscape(t *testing.T) {
	checkEscape[uint64](t, 1<<61-1, 1<<61, math.MaxUint64, 1<<63)
	checkEscape[int64](t, 1<<61-1, 1<<61, -1, math.MinInt64)
	checkEscape[uint](t, 1<<61-1, 1<<61, math.MaxUint, 1<<63)
	checkEscape[int](t, 1<<61-1, 1<<61, -1, math.MinInt)
	checkEscape[uintptr](t, 1<<61-1, 1<<61, ^uintptr(0), 1<<63)
}

// TestDefaultHasherIntegers: the default hasher of an integer-keyed map
// with wide values hashes the key's word, allocation-free.
func TestDefaultHasherIntegers(t *testing.T) {
	h64, h8 := defaultHasher[uint64](), defaultHasher[int8]()
	if a := testing.AllocsPerRun(100, func() { h64(1 << 40); h8(-1) }); a != 0 {
		t.Fatalf("default integer hashers allocate %v times per call pair", a)
	}
	if h64(255) != hashfn.Hash64(255) || h8(-1) != hashfn.Hash64(255) {
		t.Fatal("default integer hasher is not hashfn.Hash64 of the key's word")
	}
}
