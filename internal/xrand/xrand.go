// Package xrand supplies the seeded random sources and distribution samplers
// used by ApproxIoT's samplers and workload generators.
//
// Every randomized component in this repository receives a *Rand explicitly —
// there is no package-level RNG — so experiments are reproducible from a
// single root seed. Independent sub-streams derive their own generators via
// Split, which uses SplitMix64 so sibling streams are decorrelated.
package xrand

import (
	"math"
	"math/rand"
)

// Rand is a seeded pseudo-random generator with the distribution samplers the
// paper's workloads need (Gaussian sub-streams, Poisson sub-streams with λ up
// to 10^7, and heavy-tailed value models for the trace generators).
type Rand struct {
	src  *rand.Rand
	seed int64 // what src was seeded with
	// drawn records that src has advanced since it was last seeded, so
	// Reseed can skip the (607-word) seeding of a generator nobody drew from.
	drawn bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	s := int64(mix(seed))
	return &Rand{src: rand.New(rand.NewSource(s)), seed: s}
}

// Reseed rewinds the generator, in place, to the state New left it in: the
// draws that follow repeat the draws of a freshly built generator with the
// same seed bit for bit (rand.Rand.Seed(s) yields the stream of
// rand.NewSource(s)). Owners that would otherwise build one generator per
// time window keep one and rewind it instead.
func (r *Rand) Reseed() {
	if r.drawn {
		r.src.Seed(r.seed)
		r.drawn = false
	}
}

// gen returns the underlying generator for one or more draws.
func (r *Rand) gen() *rand.Rand {
	r.drawn = true
	return r.src
}

// Split derives the i-th child generator. Children of distinct (seed, i)
// pairs are decorrelated, which keeps per-sub-stream randomness independent
// the way the paper's per-source generators were.
func Split(seed uint64, i uint64) *Rand {
	return New(mix(seed) ^ mix(i+0x9e3779b97f4a7c15))
}

// mix is the SplitMix64 finalizer. It turns correlated integer seeds into
// decorrelated ones.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.gen().Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.gen().Intn(n) }

// Int63n returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 { return r.gen().Int63n(n) }

// Uint64 returns a uniform 64-bit sample.
func (r *Rand) Uint64() uint64 { return r.gen().Uint64() }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.gen().Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.gen().Shuffle(n, swap) }

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.gen().Float64() < p
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation, matching the paper's Gaussian sub-streams A–D.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.gen().NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)); used by the synthetic NYC-taxi fare
// model, which needs a heavy right tail.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential sample with the given rate (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	return r.gen().ExpFloat64() / rate
}

// poissonSwitch is the λ above which Poisson switches from Knuth's
// multiplication method (O(λ) per draw) to the PTRS transformed-rejection
// sampler (O(1) per draw). Fig. 10c needs λ = 10^7, where Knuth would be
// ~10^7 multiplications per item.
const poissonSwitch = 30

// Poisson returns a Poisson sample with mean lambda. lambda <= 0 yields 0.
func (r *Rand) Poisson(lambda float64) int64 {
	switch {
	case lambda <= 0:
		return 0
	case lambda < poissonSwitch:
		return r.poissonKnuth(lambda)
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonKnuth is Knuth's classic multiplication method, exact for small λ.
func (r *Rand) poissonKnuth(lambda float64) int64 {
	limit := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= r.gen().Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's PTRS transformed-rejection sampler
// ("The transformed rejection method for generating Poisson random
// variables", 1993). Valid for λ >= 10; O(1) expected time for any λ.
func (r *Rand) poissonPTRS(lambda float64) int64 {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.gen().Float64() - 0.5
		v := r.gen().Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-logGamma(k+1) {
			return int64(k)
		}
	}
}

// logGamma returns ln Γ(x) via math.Lgamma, dropping the sign (x > 0 here).
func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
