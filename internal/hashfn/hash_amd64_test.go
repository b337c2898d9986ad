package hashfn

import "testing"

// archPaths: the CRC32Q instructions, and crcPair's jump to the table
// loop taken as on a CPU without SSE4.2.
func archPaths(t *testing.T) []hashPath {
	noSSE42 := hashPath{"crcPair without SSE4.2", func(k uint64) uint64 {
		saved := hasCRC32
		hasCRC32 = false
		defer func() { hasCRC32 = saved }()
		return crcPair(k)
	}}
	if !hasCRC32 {
		t.Log("no SSE4.2 on this CPU: the CRC32Q path is not tested")
		return []hashPath{noSSE42}
	}
	return []hashPath{{"CRC32Q", crcPair}, noSSE42}
}
