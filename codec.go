package growt

import (
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"unsafe"

	"repro/internal/hashfn"
)

// This file is the codec layer of the typed facade: it maps arbitrary Go
// key and value types onto the 63-bit-key / 62-bit-value word domain of
// the core tables (§5.6/§5.7 "generalization to complex types").
//
// Keys of built-in integer or bool type convert bijectively to uint64 and
// ride the full-key wrapper (§5.6), so the entire value range of the Go
// type is legal. Values of built-in integer or bool type are stored
// directly when they fit 61 bits and escape into an indirection arena
// otherwise; all other value types always live in the arena, with the
// word cell holding the slot reference. Value slots are never given back:
// a slot orphaned by an overwrite or a delete of a wide value stays until
// the map itself is collected — the paper's deferral of complex-type
// space reclamation (§5.7), and the one deferral left: the generic key
// route of typed.go reclaims everything it allocates.

// directValMax is the largest value word stored inline; larger encodings
// carry escapeBit plus an arena slot reference. Both fit the core's
// 62-bit value domain.
const (
	directValMax = uint64(1)<<61 - 1
	escapeBit    = uint64(1) << 61
)

// wordKeyCodec returns the bijection between K and uint64 for built-in
// integer and bool key types. ok reports whether K takes the word route;
// every other comparable type takes the generic route.
//
// The pointer puns are exact: each case fixes K's dynamic type, so &k
// really addresses a value of the punned type.
func wordKeyCodec[K comparable]() (enc func(K) uint64, dec func(uint64) K, ok bool) {
	var zk K
	switch any(zk).(type) {
	case uint64:
		return func(k K) uint64 { return *(*uint64)(unsafe.Pointer(&k)) },
			func(w uint64) K { return *(*K)(unsafe.Pointer(&w)) }, true
	case int64:
		return func(k K) uint64 { return uint64(*(*int64)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := int64(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case int:
		return func(k K) uint64 { return uint64(*(*int)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := int(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case uint:
		return func(k K) uint64 { return uint64(*(*uint)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := uint(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case uintptr:
		return func(k K) uint64 { return uint64(*(*uintptr)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := uintptr(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case uint32:
		return func(k K) uint64 { return uint64(*(*uint32)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := uint32(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case int32:
		return func(k K) uint64 { return uint64(uint32(*(*int32)(unsafe.Pointer(&k)))) },
			func(w uint64) K { v := int32(uint32(w)); return *(*K)(unsafe.Pointer(&v)) }, true
	case uint16:
		return func(k K) uint64 { return uint64(*(*uint16)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := uint16(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case int16:
		return func(k K) uint64 { return uint64(uint16(*(*int16)(unsafe.Pointer(&k)))) },
			func(w uint64) K { v := int16(uint16(w)); return *(*K)(unsafe.Pointer(&v)) }, true
	case uint8:
		return func(k K) uint64 { return uint64(*(*uint8)(unsafe.Pointer(&k))) },
			func(w uint64) K { v := uint8(w); return *(*K)(unsafe.Pointer(&v)) }, true
	case int8:
		return func(k K) uint64 { return uint64(uint8(*(*int8)(unsafe.Pointer(&k)))) },
			func(w uint64) K { v := int8(uint8(w)); return *(*K)(unsafe.Pointer(&v)) }, true
	case bool:
		return func(k K) uint64 {
				if *(*bool)(unsafe.Pointer(&k)) {
					return 1
				}
				return 0
			},
			func(w uint64) K { v := w != 0; return *(*K)(unsafe.Pointer(&v)) }, true
	}
	return nil, nil, false
}

// valCodec encodes values of type V into the core's 62-bit word domain
// and back. tryEnc is the allocation-free attempt: it succeeds exactly
// when enc would store inline, letting callers avoid orphaning an arena
// slot on operations that may not end up storing the operand.
//
// slotBytes is the codec's static estimate of arena bytes per stored
// value: zero for codecs that store (typically) inline, sizeof(V) for
// arena-only wide values. WithMaxBytes converts its byte budget into an
// entry budget with it.
type valCodec[V any] struct {
	enc       func(V) uint64
	dec       func(uint64) V
	tryEnc    func(V) (uint64, bool)
	slotBytes uint64
}

// inlineCodec wraps an always-inline bijection (narrow integers, bool):
// tryEnc never fails.
func inlineCodec[V any](enc func(V) uint64, dec func(uint64) V) *valCodec[V] {
	return &valCodec[V]{
		enc: enc, dec: dec,
		tryEnc: func(v V) (uint64, bool) { return enc(v), true },
	}
}

// newValCodec builds the value codec for V: narrow integers and bool are
// always inline, 64-bit integers are inline with an arena escape for
// magnitudes ≥ 2^61 (including all negatives), and every other type is
// arena-only.
func newValCodec[V any]() *valCodec[V] {
	var zv V
	switch any(zv).(type) {
	case uint32:
		return inlineCodec[V](
			func(v V) uint64 { return uint64(*(*uint32)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := uint32(w); return *(*V)(unsafe.Pointer(&v)) })
	case int32:
		return inlineCodec[V](
			func(v V) uint64 { return uint64(uint32(*(*int32)(unsafe.Pointer(&v)))) },
			func(w uint64) V { v := int32(uint32(w)); return *(*V)(unsafe.Pointer(&v)) })
	case uint16:
		return inlineCodec[V](
			func(v V) uint64 { return uint64(*(*uint16)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := uint16(w); return *(*V)(unsafe.Pointer(&v)) })
	case int16:
		return inlineCodec[V](
			func(v V) uint64 { return uint64(uint16(*(*int16)(unsafe.Pointer(&v)))) },
			func(w uint64) V { v := int16(uint16(w)); return *(*V)(unsafe.Pointer(&v)) })
	case uint8:
		return inlineCodec[V](
			func(v V) uint64 { return uint64(*(*uint8)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := uint8(w); return *(*V)(unsafe.Pointer(&v)) })
	case int8:
		return inlineCodec[V](
			func(v V) uint64 { return uint64(uint8(*(*int8)(unsafe.Pointer(&v)))) },
			func(w uint64) V { v := int8(uint8(w)); return *(*V)(unsafe.Pointer(&v)) })
	case bool:
		return inlineCodec[V](
			func(v V) uint64 {
				if *(*bool)(unsafe.Pointer(&v)) {
					return 1
				}
				return 0
			},
			func(w uint64) V { v := w != 0; return *(*V)(unsafe.Pointer(&v)) })
	case uint64:
		return escapingCodec[V](func(v V) uint64 { return *(*uint64)(unsafe.Pointer(&v)) },
			func(w uint64) V { return *(*V)(unsafe.Pointer(&w)) })
	case int64:
		return escapingCodec[V](func(v V) uint64 { return uint64(*(*int64)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := int64(w); return *(*V)(unsafe.Pointer(&v)) })
	case int:
		return escapingCodec[V](func(v V) uint64 { return uint64(*(*int)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := int(w); return *(*V)(unsafe.Pointer(&v)) })
	case uint:
		return escapingCodec[V](func(v V) uint64 { return uint64(*(*uint)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := uint(w); return *(*V)(unsafe.Pointer(&v)) })
	case uintptr:
		return escapingCodec[V](func(v V) uint64 { return uint64(*(*uintptr)(unsafe.Pointer(&v))) },
			func(w uint64) V { v := uintptr(w); return *(*V)(unsafe.Pointer(&v)) })
	}
	// Wide values: every value lives in the arena, the word is the slot.
	ar := newArena[V]()
	return &valCodec[V]{
		enc:       ar.put,
		dec:       func(w uint64) V { return *ar.get(w) },
		tryEnc:    func(V) (uint64, bool) { return 0, false },
		slotBytes: uint64(unsafe.Sizeof(zv)),
	}
}

// escapingCodec wraps a 64-bit integer bijection with the inline/arena
// split: words ≤ directValMax store inline, everything else (large
// magnitudes, negatives) escapes to a slot.
func escapingCodec[V any](toWord func(V) uint64, fromWord func(uint64) V) *valCodec[V] {
	ar := newArena[V]()
	return &valCodec[V]{
		enc: func(v V) uint64 {
			if w := toWord(v); w <= directValMax {
				return w
			}
			return escapeBit | ar.put(v)
		},
		dec: func(w uint64) V {
			if w <= directValMax {
				return fromWord(w)
			}
			return *ar.get(w &^ escapeBit)
		},
		tryEnc: func(v V) (uint64, bool) {
			w := toWord(v)
			return w, w <= directValMax
		},
	}
}

// defaultHasher builds the 64-bit hash for generic-route keys. Floats and
// string-kinded keys (string itself and named string types) get
// dedicated unsafe fast paths with no reflection and no allocation;
// everything else is canonicalized by a reflect walk into a seeded
// maphash. The walk respects ==-equality
// (±0.0 hash alike, pointers/channels hash by identity), so two keys
// that compare equal always hash equal. Collisions between distinct
// keys are resolved by comparing stored keys, so hash quality affects
// only speed — supply WithHasher for hot generic-keyed maps.
func defaultHasher[K comparable]() func(K) uint64 {
	var zk K
	switch any(zk).(type) {
	case float64:
		return func(k K) uint64 {
			f := *(*float64)(unsafe.Pointer(&k))
			if f == 0 {
				f = 0 // collapse -0 onto +0: they compare equal
			}
			return hashfn.Hash64(math.Float64bits(f))
		}
	case float32:
		return func(k K) uint64 {
			f := *(*float32)(unsafe.Pointer(&k))
			if f == 0 {
				f = 0
			}
			return hashfn.Hash64(uint64(math.Float32bits(f)))
		}
	}
	seed := maphash.MakeSeed()
	if reflect.TypeOf((*K)(nil)).Elem().Kind() == reflect.String {
		// K's underlying type is string, so &k addresses a string header.
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
