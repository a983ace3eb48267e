// The engine's per-trial PRNG source: math/rand's additive
// lagged-Fibonacci generator, value for value, with a lazy Seed.
//
// math/rand's Seed fills a 607-word feedback table through 1 841
// Park–Miller LCG steps, and a trial then reads only a few words of it.
// Word i of that table is rngCooked[i] XOR three consecutive LCG values,
// the first of which is x0·48271^(21+3i) mod (2³¹−1) for the normalized
// seed x0, so any word can be computed on its own by jump-ahead. The
// first rngTap outputs read only words nothing has overwritten yet
// (feed 333−k, tap 606−k), so lazySource computes them directly from
// the seed; at output rngTap it materializes the words still unwritten
// and runs the plain recurrence from there on. Seed is therefore O(1)
// and every output equals rand.NewSource's for the same seed.
package mc

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

var (
	// rngPow[i] = 48271^(21+3i) mod (2³¹−1): the jump from the seed to the
	// first LCG value behind word i.
	rngPow [rngLen]int64
	// rngCooked is math/rand's seeding table. It is recovered from
	// rand.NewSource(1) instead of copied: the first rngLen outputs of
	// the recurrence determine its initial words, and word i XOR its
	// LCG part for seed 1 is rngCooked[i].
	rngCooked [rngLen]int64
)

func init() {
	p := int64(1)
	for i := 0; i < 21; i++ {
		p = p * lcgMul % int32max
	}
	for i := range rngPow {
		rngPow[i] = p
		p = p * lcgMul % int32max * lcgMul % int32max * lcgMul % int32max
	}
	// With z[k+rngLen] the k-th output and z[0:rngLen] the initial words
	// in feed order, z[k+rngLen] = z[k] + z[k+rngLen-rngTap]; run it
	// backwards. Feed order holds word i at z[rngLen-rngTap-1-i] for
	// i < rngLen-rngTap and at z[2·rngLen-rngTap-1-i] otherwise.
	src := rand.NewSource(1).(rand.Source64)
	var z [2 * rngLen]int64
	for k := rngLen; k < 2*rngLen; k++ {
		z[k] = int64(src.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		z[k] = z[k+rngLen] - z[k+rngLen-rngTap]
	}
	for i := range rngCooked {
		j := rngLen - rngTap - 1 - i
		if j < 0 {
			j += rngLen
		}
		rngCooked[i] = z[j] ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of seed word i for normalized seed x0.
func lcgWord(x0 int64, i int) int64 {
	a := x0 * rngPow[i] % int32max
	b := a * lcgMul % int32max
	c := b * lcgMul % int32max
	return a<<40 ^ b<<20 ^ c
}

// lazySource implements rand.Source64 with math/rand's exact stream.
type lazySource struct {
	x0        int64 // normalized seed
	n         int   // outputs drawn since Seed, counted up to rngTap
	tap, feed int
	vec       [rngLen]int64
}

// newLazySource returns a source seeded like rand.NewSource(seed).
func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed records the seed, normalized exactly as math/rand does; Uint64
// derives tap and feed from n until the table is materialized.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = seed
	s.n = 0
}

func (s *lazySource) word(i int) int64 { return lcgWord(s.x0, i) ^ rngCooked[i] }

// Uint64 returns the next output of the additive recurrence.
func (s *lazySource) Uint64() uint64 {
	if s.n < rngTap {
		// Output k reads words 333−k and 606−k, both still as seeded.
		s.tap = rngLen - 1 - s.n
		s.feed = rngLen - rngTap - 1 - s.n
		t := s.word(s.tap)
		x := s.word(s.feed) + t
		s.vec[s.tap] = t
		s.vec[s.feed] = x
		s.n++
		if s.n == rngTap {
			// vec[61:607] now holds outputs and the tap words read;
			// vec[0:61] is still as seeded.
			for i := 0; i < s.feed; i++ {
				s.vec[i] = s.word(i)
			}
		}
		return uint64(x)
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer, as math/rand's does.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
