package growt

import (
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"unsafe"

	"repro/internal/hashfn"
)

// This file is the codec layer of the typed facade: what maps Go key and
// value types onto the 64-bit-key / 62-bit-value word domain of the core
// tables behind the §5.6 full-key wrapper.
//
// The built-in integer and bool types convert bijectively to a word — the
// type's 1, 2, 4 or 8 bytes, zero-extended — so a map whose key and value
// types are both among them stores its elements in the word cells
// themselves (the word route of typed.go). An 8-byte signed value is
// zigzag-folded first (0, -1, 1, -2, … → 0, 1, 2, 3, …), so a small
// negative value is a small word too. What does not fit the value domain
// escapes into an indirection arena whose slots are never given back: an
// unsigned 8-byte value ≥ 2^61, a signed one outside [-2^60, 2^60). An
// overwrite or a delete of such a value orphans one slot until the map
// itself is collected — the paper's deferral of space reclamation
// (§5.7), and the one left. Every other pair of types takes the generic
// route, which reclaims all it allocates; its default hash functions are
// at the bottom of this file.

// directValMax is the largest value word stored inline; larger encodings
// carry escapeBit plus an arena slot reference. Both fit the core's
// 62-bit value domain.
const (
	directValMax = uint64(1)<<61 - 1
	escapeBit    = uint64(1) << 61
)

// wordWidth is T's size in bytes if T is a built-in integer or bool type
// — the types toWord and fromWord convert — and 0 for every other type,
// named integer types included.
func wordWidth[T any]() uintptr {
	var z T
	switch any(z).(type) {
	case uint64, int64, uint, int, uintptr, uint32, int32, uint16, int16, uint8, int8, bool:
		return unsafe.Sizeof(z)
	}
	return 0
}

// toWord zero-extends the w bytes of v, w = wordWidth[T]() != 0: signed
// types keep their bit pattern, true is 1. The pointer puns are exact: v
// is an integer or bool of w bytes.
func toWord[T any](v T, w uintptr) uint64 {
	p := unsafe.Pointer(&v)
	switch w {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	}
	return *(*uint64)(p)
}

// fromWord is toWord's inverse: the low w bytes of x as a T.
func fromWord[T any](x uint64, w uintptr) (v T) {
	p := unsafe.Pointer(&v)
	switch w {
	case 1:
		*(*uint8)(p) = uint8(x)
	case 2:
		*(*uint16)(p) = uint16(x)
	case 4:
		*(*uint32)(p) = uint32(x)
	default:
		*(*uint64)(p) = x
	}
	return v
}

// valCodec encodes word-route values of type V into the core's 62-bit
// value domain and back: inline when the word — zigzag-folded for the
// 8-byte signed types — fits 61 bits, always for the types narrower than
// 8 bytes, and as escapeBit plus a slot of ar otherwise.
type valCodec[V any] struct {
	w      uintptr   // wordWidth[V]()
	ar     *arena[V] // of the 8-byte types' escaped values; nil for narrower V
	zigzag bool      // V is int64, or int of 8 bytes
}

// valCodecFor builds the codec of a V that is w = wordWidth[V]() bytes wide.
func valCodecFor[V any](w uintptr) valCodec[V] {
	c := valCodec[V]{w: w}
	if w == 8 {
		c.ar = newArena[V]()
		var z V
		switch any(z).(type) {
		case int64, int:
			c.zigzag = true
		}
	}
	return c
}

// tryEnc is the allocation-free attempt: it succeeds exactly when enc
// would store inline, letting callers avoid orphaning an arena slot on
// operations that may not end up storing the operand.
func (c *valCodec[V]) tryEnc(v V) (uint64, bool) {
	x := toWord(v, c.w)
	if c.zigzag {
		x = x<<1 ^ uint64(int64(x)>>63)
	}
	return x, x <= directValMax
}

func (c *valCodec[V]) enc(v V) uint64 {
	if x, inline := c.tryEnc(v); inline {
		return x
	}
	return escapeBit | c.ar.put(v)
}

func (c *valCodec[V]) dec(x uint64) V {
	if x <= directValMax {
		if c.zigzag {
			x = x>>1 ^ -(x & 1)
		}
		return fromWord[V](x, c.w)
	}
	return *c.ar.get(x &^ escapeBit)
}

// defaultHasher builds the 64-bit hash for generic-route keys. Built-in
// integer and bool keys (an integer-keyed map with wide values), float
// and string kinds (named types included) get dedicated unsafe fast paths
// with no reflection and no allocation; everything else is canonicalized
// by a reflect walk into a seeded maphash. The walk respects ==-equality
// (±0.0 hash alike, pointers/channels hash by identity), so two keys
// that compare equal always hash equal. Collisions between distinct
// keys are resolved by comparing stored keys, so hash quality affects
// only speed — supply WithHasher for hot generic-keyed maps.
//
// The pointer puns are exact: each case fixes K's underlying type, so &k
// really addresses a value of the punned type.
func defaultHasher[K comparable]() func(K) uint64 {
	if w := wordWidth[K](); w != 0 {
		return func(k K) uint64 { return hashfn.Hash64(toWord(k, w)) }
	}
	seed := maphash.MakeSeed()
	switch reflect.TypeOf((*K)(nil)).Elem().Kind() {
	case reflect.Float64:
		return func(k K) uint64 {
			f := *(*float64)(unsafe.Pointer(&k))
			if f == 0 {
				f = 0 // collapse -0 onto +0: they compare equal
			}
			return hashfn.Hash64(math.Float64bits(f))
		}
	case reflect.Float32:
		return func(k K) uint64 {
			f := *(*float32)(unsafe.Pointer(&k))
			if f == 0 {
				f = 0
			}
			return hashfn.Hash64(uint64(math.Float32bits(f)))
		}
	case reflect.String:
		return func(k K) uint64 { return maphash.String(seed, *(*string)(unsafe.Pointer(&k))) }
	}
	return func(k K) uint64 {
		var h maphash.Hash
		h.SetSeed(seed)
		hashReflect(&h, reflect.ValueOf(&k).Elem())
		return h.Sum64()
	}
}

// hashReflect canonicalizes v into h, covering every comparable kind —
// including interface kinds, which satisfy the comparable constraint as
// type arguments since Go 1.20 (==-equal interfaces have the same
// dynamic type and equal dynamic values, so both are hashed). The kind
// accessors below do not require exported struct fields.
func hashReflect(h *maphash.Hash, v reflect.Value) {
	var buf [8]byte
	le := func(u uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.WriteByte(1)
		} else {
			h.WriteByte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		le(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		le(v.Uint())
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if f == 0 {
			f = 0 // ±0 compare equal, must hash equal
		}
		le(math.Float64bits(f))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		re, im := real(c), imag(c)
		if re == 0 {
			re = 0
		}
		if im == 0 {
			im = 0
		}
		le(math.Float64bits(re))
		le(math.Float64bits(im))
	case reflect.String:
		s := v.String()
		le(uint64(len(s))) // length prefix: no cross-field ambiguity
		h.WriteString(s)
	case reflect.Pointer, reflect.Chan, reflect.UnsafePointer:
		le(uint64(v.Pointer())) // identity, matching == semantics
	case reflect.Interface:
		e := v.Elem()
		if !e.IsValid() {
			le(0) // nil interface
			return
		}
		// Interface equality is dynamic type + dynamic value; hash both.
		// (An incomparable dynamic value would make == panic anyway,
		// exactly like a built-in map.)
		s := e.Type().String()
		le(uint64(len(s)))
		h.WriteString(s)
		hashReflect(h, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashReflect(h, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			hashReflect(h, v.Index(i))
		}
	default:
		// Unreachable for strictly comparable K; keep a deterministic
		// fallback rather than panicking inside a hash.
		fmt.Fprintf(h, "%v", v)
	}
}
