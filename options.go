package growt

import "time"

// config is the resolved functional-option state consumed by New.
type config struct {
	strategy Strategy
	capacity uint64
	bounded  bool
	expected uint64
	// hasher holds a user-supplied func(K) uint64; it is stored as any
	// because Option is deliberately non-generic (so option values can be
	// built, stored, and passed around without naming K), and re-typed
	// inside New[K, V] with a descriptive panic on mismatch.
	hasher any
	// Cache-layer settings (WithTTL, WithMaxEntries, WithSweepInterval).
	// New itself ignores them — they configure the internal/cache facade,
	// which shares this option vocabulary so one option list describes a
	// whole cache-over-map stack (see ResolveCacheSettings).
	cache CacheSettings
}

// defaultInitialCapacity is the starting cell count of growing tables
// (the paper's growing benchmarks start at 4096).
const defaultInitialCapacity = 4096

// Option configures a typed map built by New.
type Option func(*config)

// WithStrategy picks the growing variant (§7); default UAGrow, the
// paper's headline configuration. Ignored by WithBounded maps, which
// have no migration machinery.
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithCapacity sets the initial cell count of growing tables (rounded up
// to a power of two by the core).
func WithCapacity(cells uint64) Option {
	return func(c *config) { c.capacity = cells }
}

// WithBounded disables growing: the word core becomes a folklore table
// (§4) with capacity 2×expected, the paper's sizing rule; an expected of
// 0 means 2^20 elements. Inserting beyond the bound panics, exactly like
// the low-level table.
func WithBounded(expected uint64) Option {
	if expected == 0 {
		expected = 1 << 20
	}
	return func(c *config) {
		c.bounded = true
		c.expected = expected
	}
}

// CacheSettings is the resolved state of the cache-layer options. The
// plain map built by New has no expiry machinery — these settings are
// consumed by the cache facade (internal/cache, served by growd's
// -default-ttl/-max-entries flags), which accepts the same Option list
// as New and forwards the table-shaping options to it.
type CacheSettings struct {
	// TTL is the default time-to-live applied to entries stored without
	// an explicit deadline. Zero means entries are immortal unless given
	// a per-entry TTL.
	TTL time.Duration
	// MaxEntries bounds the cache's live element count; once the size
	// exceeds it, writes evict entries not read since the eviction hand
	// last passed them (CLOCK with SIEVE's visited mark).
	// Zero means unbounded.
	MaxEntries uint64
	// SweepInterval is the tick of the background expiry sweeper. Zero
	// picks the cache's default; negative disables proactive sweeping
	// (expiry is then enforced lazily on read only).
	SweepInterval time.Duration
}

// WithTTL sets the default time-to-live for cache entries stored without
// an explicit per-entry deadline. Consumed by the cache layer; the plain
// typed map ignores it.
func WithTTL(d time.Duration) Option {
	return func(c *config) { c.cache.TTL = d }
}

// WithMaxEntries bounds the cache's live element count: beyond it,
// writes evict entries not read since the eviction hand last passed them
// (CLOCK with SIEVE's visited mark) until the size is back under budget.
// Consumed by the cache layer; the plain typed map ignores it.
func WithMaxEntries(n uint64) Option {
	return func(c *config) { c.cache.MaxEntries = n }
}

// WithSweepInterval sets the tick of the cache's background expiry
// sweeper (0 = cache default, negative = lazy expiry only). Consumed by
// the cache layer; the plain typed map ignores it.
func WithSweepInterval(d time.Duration) Option {
	return func(c *config) { c.cache.SweepInterval = d }
}

// ResolveCacheSettings applies opts and returns the cache-layer subset.
// It is how the cache facade reads its own options out of the shared
// Option vocabulary before forwarding the full list to New (which
// ignores the cache subset).
func ResolveCacheSettings(opts ...Option) CacheSettings {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c.cache
}

// WithHasher supplies the 64-bit hash used by maps on the generic route
// (every map but those whose key and value types are both built-in
// integers or bools, which hash nothing and ignore it). K must equal the
// map's key type or New panics. The
// facade is collision-correct — equal hashes are resolved by comparing
// stored keys — so the hasher only affects performance, never results.
func WithHasher[K comparable](h func(K) uint64) Option {
	return func(c *config) { c.hasher = h }
}
