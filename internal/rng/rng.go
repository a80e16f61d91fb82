// Package rng provides a deterministic, seedable pseudo-random number
// source with named sub-stream derivation.
//
// The wind tunnel requires reproducible simulations: the same seed must
// produce the same event trajectory regardless of map iteration order or
// scheduling. Every model owns its own derived stream so that adding a new
// model does not perturb the draws seen by existing models (a property the
// paper's extensibility argument in §4.1 depends on).
//
// The generator is xoshiro256** seeded through SplitMix64, both public
// domain algorithms by Blackman and Vigna. Only the standard library is
// used.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; derive one Source per goroutine with Derive.
type Source struct {
	s [4]uint64

	// flip is XORed into every raw xoshiro output: 0 for a plain stream,
	// ^0 for an antithetic stream. Flipping all 64 bits maps the
	// top-53-bit uniform u to its exact lattice complement
	// (1 - 2^-53) - u, so an antithetic stream consumes the mirrored
	// uniforms of its twin while both advance identical state.
	flip uint64

	// cached second normal variate from the polar method.
	hasNorm bool
	norm    float64
}

// splitmix64 advances the seed expander and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Source {
	r := new(Source)
	r.Reseed(seed)
	return r
}

// Reseed puts the source, in place, into the state New(seed) returns:
// seeded from seed, plain (not antithetic), no cached normal variate.
func (r *Source) Reseed(seed uint64) {
	*r = Source{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result ^ r.flip
}

// SetAntithetic switches the source between plain and antithetic output.
// An antithetic source emits, for every draw, the bitwise complement of
// what the plain stream would have produced, so Float64 returns the exact
// lattice mirror 1 - 2^-53 - u of the plain uniform u. Pairing a plain
// and an antithetic stream with identical state yields negatively
// correlated trajectories for any monotone transform (§4.2's antithetic
// variates). Derived and forked streams inherit the setting.
func (r *Source) SetAntithetic(on bool) {
	if on {
		r.flip = ^uint64(0)
	} else {
		r.flip = 0
	}
}

// Antithetic reports whether the source emits antithetic draws.
func (r *Source) Antithetic() bool { return r.flip != 0 }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform value in the open interval (0, 1),
// suitable for inverse-transform sampling where log(0) must be avoided.
func (r *Source) OpenFloat64() float64 {
	for {
		v := r.Float64()
		if v != 0 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation. bits.Mul64 is a
	// compiler intrinsic (single MULX/UMULH on amd64/arm64).
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int63 returns a non-negative 63-bit integer.
func (r *Source) Int63() int64 { return int64(r.Uint64() >> 1) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with the permutation of [0, len(p)) that Perm(len(p))
// returns, consuming the same draws.
func (r *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle randomizes the order of n elements using swap (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct integers drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *Source) Sample(n, k int) []int {
	if k < 0 {
		panic("rng: Sample with k out of range")
	}
	out := make([]int, k)
	r.SampleInto(out, n, nil)
	return out
}

// SampleInto fills out with the len(out) distinct integers that
// Sample(n, len(out)) returns, consuming the same draws. identity is
// optional scratch that lets the dense case run without allocating: nil,
// or a slice of at least n entries with identity[i] == i, which is how
// SampleInto leaves it. It panics if len(out) > n.
func (r *Source) SampleInto(out []int, n int, identity []int) {
	k := len(out)
	if k > n {
		panic("rng: Sample with k out of range")
	}
	switch {
	case k == 0:
	case 8*k <= n && k <= 64:
		// Rejection sampling with a linear dedup scan: the
		// replica-placement common case (a handful of targets from a big
		// cluster). Collision probability is <= 1/8 per draw and the scan
		// stays within a cache line or two, so this beats both the map and
		// a dense shuffle.
		for i := 0; i < k; {
			v := r.Intn(n)
			dup := false
			for _, prev := range out[:i] {
				if prev == v {
					dup = true
					break
				}
			}
			if !dup {
				out[i] = v
				i++
			}
		}
	case len(identity) >= n || n <= 1024:
		// Dense partial Fisher–Yates over the identity permutation.
		if len(identity) < n {
			identity = make([]int, n)
			for i := range identity {
				identity[i] = i
			}
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			identity[i], identity[j] = identity[j], identity[i]
			out[i] = identity[i]
		}
		// Undo in O(k): the swaps touched positions 0..k-1 and the
		// positions whose original values now sit in out.
		for i, v := range out {
			identity[i] = i
			identity[v] = v
		}
	default:
		// Partial Fisher–Yates over a sparse map: O(k) time and space even
		// for large n with large k.
		swapped := make(map[int]int, k)
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			vi, ok := swapped[i]
			if !ok {
				vi = i
			}
			vj, ok := swapped[j]
			if !ok {
				vj = j
			}
			out[i] = vj
			swapped[j] = vi
		}
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method, caching the paired value.
func (r *Source) NormFloat64() float64 {
	if r.hasNorm {
		r.hasNorm = false
		return r.norm
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.norm = v * f
		r.hasNorm = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	return -math.Log(r.OpenFloat64())
}

// Hash is the hash of a stream name that Derive and Keyed mix in: for a
// caller that names one stream many times, DeriveHashed and RekeyHashed
// take it computed once.
func Hash(name string) uint64 { return fnv1a(name) }

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Derive returns a new Source whose state is a deterministic function of
// the receiver's current state and name. Distinct names yield independent
// streams; deriving does not advance the parent stream, so the set of
// derived streams is stable under insertion of new names. The antithetic
// setting is inherited, so a mirrored parent yields mirrored children
// with state identical to the plain twin's children.
func (r *Source) Derive(name string) *Source {
	d := new(Source)
	r.DeriveInto(d, name)
	return d
}

// DeriveInto puts d, in place, into the state Derive(name) returns.
func (r *Source) DeriveInto(d *Source, name string) { r.DeriveHashed(d, fnv1a(name)) }

// DeriveHashed is DeriveInto for the name whose Hash is h.
func (r *Source) DeriveHashed(d *Source, h uint64) {
	d.Reseed(r.s[0] ^ rotl(r.s[2], 13) ^ h)
	d.flip = r.flip
}

// Keyed returns the deterministic Source for the (seed, trial, name)
// triple: a pure function of its arguments, independent of any generator
// state. This is the §4.2 common-random-numbers keying — two design
// points that share an experiment seed and trial index see identical
// draws for every stream name, so their availability estimates are
// positively correlated and comparisons between them (dominance pruning,
// Best() ranking) converge in far fewer trials than with independent
// sampling.
func Keyed(seed, trial uint64, name string) *Source {
	r := new(Source)
	r.Rekey(seed, trial, name)
	return r
}

// Rekey puts the source, in place, into the state Keyed(seed, trial,
// name) returns.
func (r *Source) Rekey(seed, trial uint64, name string) { r.RekeyHashed(seed, trial, fnv1a(name)) }

// RekeyHashed is Rekey for the name whose Hash is h.
func (r *Source) RekeyHashed(seed, trial, h uint64) {
	x := seed
	a := splitmix64(&x)
	y := trial ^ 0x6a09e667f3bcc909 // sqrt(2) bits: decorrelate trial from seed
	b := splitmix64(&y)
	r.Reseed(a ^ rotl(b, 17) ^ h)
}
