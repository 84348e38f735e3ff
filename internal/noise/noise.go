// Package noise is the program's one pseudo-random source: SplitMix64
// (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014) as a stateless mixer for hash draws and as an
// eight-byte counter-based stream for everything that draws in sequence.
//
// A Stream is a math/rand/v2 Source, so normals, exponentials and
// uniforms come from math/rand/v2.Rand over it (its ziggurat for the
// normal and the exponential); this package has no transform of its own.
package noise

import "math/rand/v2"

// gamma is SplitMix64's increment: 2^64 divided by the golden ratio,
// rounded to odd.
const gamma = 0x9e3779b97f4a7c15

// Mix64 is SplitMix64's output function: x + γ through the variant-13
// finalizer. It is a bijection on uint64, and a one-bit change in x flips
// about half the output bits.
func Mix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV64a hashes a string with 64-bit FNV-1a.
func FNV64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Stream is a SplitMix64 stream: its n-th draw is Mix64(x₀ + n·γ), where
// x₀ is the seeded counter. It implements math/rand/v2.Source.
type Stream struct{ x uint64 }

// NewStream returns the stream of seed. The counter starts at
// Mix64(seed), so consecutive seeds (which the simulator hands out) start
// at unrelated points of the sequence.
func NewStream(seed int64) Stream { return Stream{Mix64(uint64(seed))} }

// Uint64 returns the next draw and advances the counter.
func (s *Stream) Uint64() uint64 {
	r := Mix64(s.x)
	s.x += gamma
	return r
}

// New returns a math/rand/v2 generator over its own stream of seed.
func New(seed int64) *rand.Rand {
	s := NewStream(seed)
	return rand.New(&s)
}
