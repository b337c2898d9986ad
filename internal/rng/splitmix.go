package rng

// SplitMix64 is the Steele–Lea–Flood split-mix generator: a tiny, fast,
// full-period generator over 2^64. Used to derive independent seeds for
// per-goroutine MT19937 instances and for cheap randomized decisions in
// the tables themselves (e.g. the randomized counter-flush threshold of
// §5.2, which the paper randomizes between 1 and p to provably reduce
// contention).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator with the given starting state.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// MakeSplitMix64 returns a generator with the given starting state as a
// value, for a caller that keeps it on its stack: where a call to
// NewSplitMix64 is not inlined, its result is heap-allocated.
func MakeSplitMix64(seed uint64) SplitMix64 { return SplitMix64{state: seed} }

// Uint64 returns the next value.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n); n must be > 0.
func (s *SplitMix64) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	threshold := -n % n
	for {
		v := s.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
