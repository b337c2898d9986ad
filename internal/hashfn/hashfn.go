// Package hashfn provides the 64-bit hash functions used by every table in
// this repository.
//
// The paper (§8.3) hashes keys with two CRC32-C (Castagnoli) instructions
// seeded differently, concatenating the two 32-bit results into a 64-bit
// hash; the hardware CRC instruction makes this nearly free. Hash64 is
// that construction. On amd64 it runs two CRC32Q instructions
// (hash_amd64.s) when a CPUID check made once at start-up finds SSE4.2;
// elsewhere, and on an amd64 CPU without SSE4.2, it falls back to a
// byte-at-a-time loop over hash/crc32's Castagnoli table that gives the
// same bits. A SplitMix64-style avalanche finalizer is also provided for
// tables that want stronger diffusion of the low bits (chaining/cuckoo
// baselines).
package hashfn

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seeds for the two CRC passes. Arbitrary odd constants; the paper does
// not publish its seeds, only the two-instruction construction.
const (
	seedHi uint32 = 0x9e3779b9
	seedLo uint32 = 0x85ebca6b
)

// crc32cUint64 computes the CRC32-C of the 8 little-endian bytes of x,
// starting from seed — crc32.Update's result, by the table, because a
// slice handed to crc32.Update escapes (it is called through a function
// variable) and would cost every table operation two allocations.
func crc32cUint64(seed uint32, x uint64) uint32 {
	crc := ^seed
	for i := 0; i < 8; i++ {
		crc = castagnoli[byte(crc)^byte(x)] ^ crc>>8
		x >>= 8
	}
	return ^crc
}

// Hash64 maps a 64-bit key to a 64-bit pseudorandom hash using two
// independently seeded CRC32-C passes (upper and lower 32 bits), the
// construction from §8.3 of the paper.
func Hash64(key uint64) uint64 { return crcPair(key) }

// crcPairLoop is Hash64 by the table loop: the portable path.
func crcPairLoop(key uint64) uint64 {
	return uint64(crc32cUint64(seedHi, key))<<32 | uint64(crc32cUint64(seedLo, key))
}

// Avalanche applies a SplitMix64/MurmurHash3-style finalizer. It is a
// bijection on 64-bit words with strong low- and high-bit diffusion; used
// by baselines whose index derivation consumes low bits.
func Avalanche(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
