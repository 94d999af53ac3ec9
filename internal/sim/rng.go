package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is self-contained so that simulation results are stable
// across Go releases, unlike math/rand whose stream is not guaranteed.
//
// Each component of a scenario gets its own RNG derived from the run seed,
// so adding randomness to one layer never perturbs the stream seen by
// another (common-random-numbers discipline for fair A/B trials).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent generator from this one, keyed by label, so
// that per-component streams are stable regardless of creation order.
func (r *RNG) Fork(label string) *RNG {
	h := r.state
	for _, c := range []byte(label) {
		h ^= uint64(c)
		h *= 0x100000001b3 // FNV-1a step keeps labels well mixed
	}
	return NewRNG(mix64(h))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Duration returns a uniform Time in [lo, hi).
func (r *RNG) Duration(lo, hi Time) Time {
	return Time(r.Range(float64(lo), float64(hi)))
}

// ExpFloat64 returns an exponentially distributed value with the given
// mean, via inversion. Useful for Poisson traffic generators.
func (r *RNG) ExpFloat64(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller, one branch).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}
