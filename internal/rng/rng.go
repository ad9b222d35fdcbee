// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator.
//
// Determinism matters: every experiment in this repository is reproducible
// from a single seed. The standard library's math/rand is avoided for two
// reasons: its global functions share hidden state, and rand.Source cannot
// be split into independent named streams. Source here is based on
// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) for seeding and
// xoshiro256** (Blackman & Vigna, 2018) for generation, both implemented
// from the published algorithms.
package rng

import (
	"math"
	"strconv"
)

// Source is a deterministic random number generator. The zero value is not
// usable; construct with New or Split. Source is not safe for concurrent
// use; split one stream per goroutine instead.
type Source struct {
	s [4]uint64
}

// golden is SplitMix64's increment, the odd integer nearest 2^64/φ.
const golden = 0x9e3779b97f4a7c15

// Mix returns SplitMix64's output for the state x + golden: a bijection
// of the 64-bit integers that spreads nearby inputs over the whole range.
// New seeds from it, and SplitIndex mixes its index through it, so
// consecutive indices do not produce correlated seeds.
func Mix(x uint64) uint64 {
	z := x + golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Make returns, by value, the Source New returns for seed. A stream that
// serves one call can then live on the caller's stack.
//
// xoshiro must not start from the all-zero state, and cannot: Mix is a
// bijection and its four inputs here are distinct, so at most one state
// word is zero.
func Make(seed uint64) Source {
	var src Source
	for i := range src.s {
		src.s[i] = Mix(seed + uint64(i)*golden)
	}
	return src
}

// New returns a Source seeded from seed via SplitMix64, which guarantees
// the internal xoshiro state is well distributed even for small seeds.
func New(seed uint64) *Source {
	src := Make(seed)
	return &src
}

// Split derives an independent stream identified by label. Streams derived
// with distinct labels from the same parent are statistically independent,
// and the derivation is stable across runs: Split does not consume or
// mutate the parent's state.
func (s *Source) Split(label string) *Source {
	src := Make(s.s[0] ^ fnvAdd(fnvOffset, label))
	return &src
}

// MakeSplit returns, by value, the Source Split returns for the label
// made of prefix and, after a '/' each, the decimal digits of ids:
// MakeSplit("strategy", 3, 70) is the stream of Split("strategy/3/70").
// It builds no string, so a per-node or per-request stream costs no
// allocation.
func (s *Source) MakeSplit(prefix string, ids ...uint64) Source {
	h := fnvAdd(fnvOffset, prefix)
	var digits [20]byte
	for _, id := range ids {
		h = fnvAdd(h, "/")
		h = fnvAdd(h, strconv.AppendUint(digits[:0], id, 10))
	}
	return Make(s.s[0] ^ h)
}

// The 64-bit FNV-1a parameters, as hash/fnv's New64a uses them.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds the bytes of b into the FNV-1a hash h.
func fnvAdd[B string | []byte](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// SplitIndex derives an independent stream identified by an integer index,
// for per-node streams.
func (s *Source) SplitIndex(index uint64) *Source {
	src := s.MakeIndex(index)
	return &src
}

// MakeIndex returns, by value, the Source SplitIndex returns for index,
// so a per-node stream can live inline in the node's own state instead
// of behind a pointer to a heap object of its own.
func (s *Source) MakeIndex(index uint64) Source {
	return Make(s.s[1] ^ Mix(index))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster,
	// but modulo with rejection keeps the implementation obviously
	// correct; the bias-free threshold rejects at most one value in 2^64/n.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
