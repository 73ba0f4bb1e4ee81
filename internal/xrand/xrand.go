// Package xrand supplies the seeded random sources and distribution samplers
// used by ApproxIoT's samplers and workload generators.
//
// Every randomized component in this repository receives a *Rand explicitly —
// there is no package-level RNG — so experiments are reproducible from a
// single root seed. Independent sub-streams derive their own generators via
// Split, which uses SplitMix64 so sibling streams are decorrelated.
//
// The engine is xoshiro256** (Blackman and Vigna, "Scrambled linear
// pseudorandom number generators", 2021): 32 bytes of state, seeded from
// SplitMix64, so building a generator and rewinding one (Reseed) are both a
// handful of multiplications. Uniform integers in [0, n) come from Lemire's
// multiply-shift with rejection ("Fast random integer generation in an
// interval", 2019), which is exact for every n. The Gaussian, exponential
// and permutation samplers are math/rand's, run over this engine.
package xrand

import (
	"math"
	"math/bits"
	"math/rand"
)

// Rand is a seeded pseudo-random generator with the distribution samplers the
// paper's workloads need (Gaussian sub-streams, Poisson sub-streams with λ up
// to 10^7, and heavy-tailed value models for the trace generators).
type Rand struct {
	src  xoshiro
	seed uint64     // what src was seeded with
	std  *rand.Rand // math/rand's samplers, drawing from src
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	r := &Rand{seed: seed}
	r.src.seed(seed)
	r.std = rand.New(&r.src)
	return r
}

// Reseed rewinds the generator, in place, to the state New left it in: the
// draws that follow repeat the draws of a freshly built generator with the
// same seed bit for bit. It costs four SplitMix64 steps, so owners that
// would otherwise build one generator per time window keep one and rewind
// it instead.
func (r *Rand) Reseed() { r.src.seed(r.seed) }

// Split derives the i-th child generator. Children of distinct (seed, i)
// pairs are decorrelated, which keeps per-sub-stream randomness independent
// the way the paper's per-source generators were.
func Split(seed uint64, i uint64) *Rand {
	return New(mix(seed) ^ mix(i+golden))
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix is the SplitMix64 output function: the finalizer applied to x+golden.
// It turns correlated integer seeds into decorrelated ones, and mix(x +
// i·golden) for i = 0, 1, … is SplitMix64's stream from state x.
func mix(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// xoshiro is the xoshiro256** state. It is also the rand.Source64 that
// math/rand's samplers draw from.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// seed fills the state with the first four outputs of SplitMix64 from seed.
// They are distinct (SplitMix64's finalizer is a bijection), so the state is
// never all zero.
func (x *xoshiro) seed(seed uint64) {
	x.s0 = mix(seed)
	seed += golden
	x.s1 = mix(seed)
	seed += golden
	x.s2 = mix(seed)
	seed += golden
	x.s3 = mix(seed)
}

// Uint64 advances the state and returns the next 64-bit output.
func (x *xoshiro) Uint64() uint64 {
	out := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return out
}

// Int63 returns the top 63 bits of the next output (rand.Source).
func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }

// Seed re-seeds the state (rand.Source).
func (x *xoshiro) Seed(seed int64) { x.seed(uint64(seed)) }

// Uint64 returns a uniform 64-bit sample.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform sample in [0, 1): the top 53 bits of one draw.
func (r *Rand) Float64() float64 { return float64(r.src.Uint64()>>11) * 0x1p-53 }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Int63n returns a uniform sample in [0, n). It panics if n <= 0.
//
// The sample is the high word of the 128-bit product of one draw and n
// (Lemire's multiply-shift). The low word falls below n for at most n draws
// in 2^64; only then is it compared with 2^64 mod n, and a draw below that
// — one that would bias the result — is redrawn. The whole loop inlines.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n argument must be positive")
	}
	un := uint64(n)
	for {
		hi, lo := bits.Mul64(r.src.Uint64(), un)
		if lo >= un || lo >= -un%un {
			return int64(hi)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.std.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.std.Shuffle(n, swap) }

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation, matching the paper's Gaussian sub-streams A–D.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.std.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)); used by the synthetic NYC-taxi fare
// model, which needs a heavy right tail.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential sample with the given rate (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	return r.std.ExpFloat64() / rate
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
		p *= r.Float64()
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
		u := r.Float64() - 0.5
		v := r.Float64()
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
