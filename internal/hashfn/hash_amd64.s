#include "textflag.h"

// func crcPair(key uint64) uint64
//
// Two CRC32-C instructions over the key's 8 bytes, seeded ^seedHi and
// ^seedLo and inverted after, as crc32.Update does: hi<<32 | lo. Without
// SSE4.2 it jumps to the table loop, which takes the same frame.
TEXT ·crcPair(SB), NOSPLIT, $0-16
	CMPB   ·hasCRC32(SB), $0
	JEQ    loop
	MOVQ   key+0(FP), AX
	MOVL   $0x61c88646, BX // ^seedHi
	MOVL   $0x7a143594, CX // ^seedLo
	CRC32Q AX, BX
	CRC32Q AX, CX
	NOTL   BX
	NOTL   CX
	SHLQ   $32, BX
	ORQ    CX, BX
	MOVQ   BX, ret+8(FP)
	RET

loop:
	JMP ·crcPairLoop(SB)

// func cpuHasSSE42() bool
//
// CPUID leaf 1, ECX bit 20: SSE4.2, which brings CRC32.
TEXT ·cpuHasSSE42(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $20, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
