//go:build !amd64

package hashfn

// crcPair is the table loop off amd64, the only path there.
func crcPair(key uint64) uint64 { return crcPairLoop(key) }
