package server

import (
	"encoding/binary"
	"hash/maphash"
	"time"

	growt "repro"
	"repro/internal/cache"
)

// Key is the server's map key type: an opaque byte string. Like every
// string-kinded key it takes the facade's generic route — a growing word
// core mapping the key's hash to a lock-free collision chain — so a
// long-running server never hits a fixed table bound.
type Key string

// storeSeed seeds the key hash the slow-op log records.
var storeSeed = maphash.MakeSeed()

// Store is the table a Server serves: a cache facade (per-entry TTL,
// bounded-memory eviction) over a typed map from opaque byte-string
// keys to opaque byte-string values. With no default TTL and no entry
// budget the cache is a near-pass-through and the server behaves like
// the immortal store it used to be; growd's -default-ttl/-max-entries
// flags turn the same binary into a bounded cache. Values are Go
// strings so CAS can compare them with == through the cache's
// CompareAndSwap.
type Store struct {
	C *cache.Cache[Key, string]
}

// NewStore builds the served cache. opts are the facade's functional
// options — the table-shaping ones (strategy, capacity, hasher) exactly
// as growt.New accepts them, plus the cache-layer ones (WithTTL,
// WithMaxEntries, WithSweepInterval) — so growd exposes the same
// configuration surface as the library.
func NewStore(opts ...growt.Option) *Store {
	return &Store{C: cache.New[Key, string](opts...)}
}

// Close stops the cache's sweeper and releases the map's background
// resources.
func (st *Store) Close() { st.C.Close() }

// incr atomically adds delta to the 8-byte big-endian counter at key,
// initializing an absent (or expired) key to delta under the server's
// default TTL; an existing counter keeps its deadline. ok is false when
// the key holds a live value that is not exactly 8 bytes; the value is
// then left untouched.
func incr(c *cache.Session[Key, string], k Key, delta uint64) (newVal uint64, ok bool) {
	var enc [8]byte
	binary.BigEndian.PutUint64(enc[:], delta)
	// The closure may run several times under contention; the cache
	// applies exactly its final invocation, so the last recorded verdict
	// and sum are the authoritative ones.
	inserted := c.Compute(k, string(enc[:]), func(cur, _ string) string {
		if len(cur) != 8 {
			ok = false
			return cur
		}
		ok = true
		newVal = binary.BigEndian.Uint64([]byte(cur)) + delta
		binary.BigEndian.PutUint64(enc[:], newVal)
		return string(enc[:])
	})
	if inserted {
		return delta, true
	}
	return newVal, ok
}

// ttlMillis converts a wire TTL (milliseconds, 0 = immortal) into the
// cache's duration domain, saturating instead of overflowing.
func ttlMillis(ms uint64) time.Duration {
	const maxMs = uint64(1<<63-1) / uint64(time.Millisecond)
	if ms > maxMs {
		ms = maxMs
	}
	return time.Duration(ms) * time.Millisecond
}

// ttlReply converts a cache TTL verdict into the wire's millisecond
// domain: immortal entries answer TTLImmortal, finite deadlines round
// up so a just-set TTL never reads back as 0.
func ttlReply(d time.Duration) uint64 {
	if d < 0 {
		return TTLImmortal
	}
	ms := uint64((d + time.Millisecond - 1) / time.Millisecond)
	if ms == TTLImmortal {
		ms--
	}
	return ms
}
