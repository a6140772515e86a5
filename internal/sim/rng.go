package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a seeded, reproducible random stream. It wraps math/rand.Rand
// (never the global source) and adds the distributions the simulator
// needs. Streams derived with Derive are statistically independent and
// stable across runs for the same (seed, name) pair.
type RNG struct {
	r    *rand.Rand
	seed int64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Derive returns a child stream keyed by name. The child's sequence does
// not depend on how much of the parent has been consumed.
func (g *RNG) Derive(name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	child := g.seed ^ int64(h.Sum64())
	// Avoid the degenerate all-zero state.
	if child == 0 {
		child = int64(h.Sum64()) | 1
	}
	return NewRNG(child)
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Norm returns a normal sample with the given mean and standard deviation.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Exp returns an exponential sample with the given mean (not rate). A
// non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pick returns a uniformly random index into a slice of length n, or -1
// if n <= 0.
func (g *RNG) Pick(n int) int {
	if n <= 0 {
		return -1
	}
	return g.r.Intn(n)
}

// Beta returns a sample from the Beta(a,b) distribution using Jöhnk's
// gamma-ratio construction. Both parameters must be positive; invalid
// parameters yield 0.5.
func (g *RNG) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0.5
	}
	x := g.Gamma(a)
	y := g.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma returns a sample from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method. A non-positive shape yields 0.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson returns a Poisson sample with the given mean using inversion
// for small means and normal approximation above 500 (adequate for
// workload generation). A non-positive mean returns 0.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := g.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
