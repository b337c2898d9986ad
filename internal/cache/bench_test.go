package cache

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	growt "repro"
)

// BenchmarkCacheGetParallel prices the cache layer of a served GET: every
// goroutine reads through a Session of its own, as growd's connections
// do, over 16 hot keys and over 64k keys in a scattered order. The
// budgeted cache's budget holds every key, so nothing is evicted and what
// the rows add over the unbudgeted ones is the hit's visited mark.
//
//	go test -run '^$' -bench CacheGetParallel -cpu 1,2 -benchmem ./internal/cache
func BenchmarkCacheGetParallel(b *testing.B) {
	for _, budget := range []uint64{0, 1 << 17} {
		for _, keys := range []uint64{16, 1 << 16} {
			name := fmt.Sprintf("unbudgeted/keys=%d", keys)
			if budget > 0 {
				name = fmt.Sprintf("budgeted/keys=%d", keys)
			}
			b.Run(name, func(b *testing.B) {
				opts := []growt.Option{growt.WithSweepInterval(-1)}
				if budget > 0 {
					opts = append(opts, growt.WithMaxEntries(budget))
				}
				c := New[uint64, string](opts...)
				defer c.Close()
				for k := uint64(0); k < keys; k++ {
					c.Set(k, "value")
				}
				// Make the map's handles now, so none is allocated beside the
				// testing.PB that the measured loop keeps writing (see the
				// root package's benchFacade).
				warm := make([]*Session[uint64, string], runtime.GOMAXPROCS(0))
				for i := range warm {
					warm[i] = c.NewSession()
				}
				for _, s := range warm {
					s.Close()
				}
				var g atomic.Uint64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					s := c.NewSession()
					defer s.Close()
					for i := g.Add(1) << 32; pb.Next(); i++ {
						s.Get(i * 0x9E3779B97F4A7C15 >> 48 % keys)
					}
				})
			})
		}
	}
}
