package hashfn

// hasCRC32 is whether this CPU has the CRC32 instruction (SSE4.2), read
// once by CPUID because internal/cpu cannot be imported outside the
// standard library. crcPair branches on it.
var hasCRC32 = cpuHasSSE42()

// crcPair is Hash64 by two CRC32Q instructions, or by a jump to
// crcPairLoop when !hasCRC32 (hash_amd64.s).
func crcPair(key uint64) uint64

func cpuHasSSE42() bool
