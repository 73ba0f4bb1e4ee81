package xrand

import (
	"math"
	"testing"
)

func TestDeterministicForSameSeed(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 equal draws", same)
	}
}

func TestSplitChildrenAreDecorrelated(t *testing.T) {
	a, b := Split(42, 0), Split(42, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits produced %d/64 equal draws", same)
	}
}

func TestSplitIsReproducible(t *testing.T) {
	a, b := Split(42, 3), Split(42, 3)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split with identical (seed,i) is not reproducible")
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 32; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(<0) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(>1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %.4f, want 0.3 +- 0.01", got)
	}
}

func TestNormalMoments(t *testing.T) {
	tests := []struct {
		name         string
		mean, stddev float64
	}{
		{"substream A", 10, 5},
		{"substream B", 1000, 50},
		{"substream C", 10000, 500},
		{"substream D", 100000, 5000},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := New(99)
			const n = 100000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				v := r.Normal(tc.mean, tc.stddev)
				sum += v
				sumSq += v * v
			}
			mean := sum / n
			sd := math.Sqrt(sumSq/n - mean*mean)
			if math.Abs(mean-tc.mean) > 4*tc.stddev/math.Sqrt(n) {
				t.Errorf("mean = %.2f, want %.2f", mean, tc.mean)
			}
			if math.Abs(sd-tc.stddev)/tc.stddev > 0.03 {
				t.Errorf("stddev = %.2f, want %.2f", sd, tc.stddev)
			}
		})
	}
}

func TestPoissonMoments(t *testing.T) {
	// Covers both the Knuth branch (λ < 30) and the PTRS branch, including
	// the paper's Fig. 10c λ = 10^7 sub-stream D.
	lambdas := []float64{0.5, 3, 10, 29.9, 30, 100, 1000, 10000, 1e7}
	for _, lambda := range lambdas {
		r := New(uint64(lambda) + 5)
		n := 50000
		if lambda >= 1e6 {
			n = 20000
		}
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		// Poisson mean and variance are both λ. Tolerate 5 standard errors.
		se := math.Sqrt(lambda / float64(n))
		if math.Abs(mean-lambda) > 5*se+0.01 {
			t.Errorf("lambda=%g: mean = %.3f, want %.3f", lambda, mean, lambda)
		}
		if lambda >= 10 && math.Abs(variance-lambda)/lambda > 0.1 {
			t.Errorf("lambda=%g: variance = %.3f, want ~%.3f", lambda, variance, lambda)
		}
	}
}

func TestPoissonNonPositiveLambda(t *testing.T) {
	r := New(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestPoissonNeverNegative(t *testing.T) {
	r := New(77)
	for _, lambda := range []float64{0.1, 15, 1000} {
		for i := 0; i < 1000; i++ {
			if v := r.Poisson(lambda); v < 0 {
				t.Fatalf("Poisson(%g) = %d < 0", lambda, v)
			}
		}
	}
}

func TestLogNormalPositiveAndHeavyTailed(t *testing.T) {
	r := New(5)
	const n = 50000
	var max, sum float64
	for i := 0; i < n; i++ {
		v := r.LogNormal(2.5, 0.5)
		if v <= 0 {
			t.Fatalf("LogNormal returned non-positive %g", v)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / n
	want := math.Exp(2.5 + 0.5*0.5/2) // analytic log-normal mean
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("LogNormal mean = %.3f, want ~%.3f", mean, want)
	}
	if max < 3*mean {
		t.Fatalf("LogNormal max %.2f suspiciously close to mean %.2f: no tail", max, mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(4)
	}
	mean := sum / n
	if math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Exp(4) mean = %.4f, want 0.25", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func BenchmarkPoissonSmallLambda(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(10)
	}
}

func BenchmarkPoissonHugeLambda(b *testing.B) {
	// Fig. 10c generates items with λ = 10^7; this must be O(1) per draw.
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(1e7)
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Normal(1000, 50)
	}
}

// Reseed must put the generator back where New left it: every kind of draw
// afterwards repeats a fresh generator's, and rewinding a generator nobody
// drew from is no different.
func TestReseedReplaysAFreshGenerator(t *testing.T) {
	draw := func(r *Rand) []float64 {
		out := []float64{float64(r.Int63n(1 << 40)), r.Float64(), r.Normal(0, 1), r.Exp(2), float64(r.Poisson(50)), float64(r.Uint64() >> 11)}
		for _, v := range r.Perm(5) {
			out = append(out, float64(v))
		}
		return out
	}
	want := draw(New(77))
	r := New(77)
	r.Reseed() // untouched: nothing to rewind
	for round := 0; round < 3; round++ {
		got := draw(r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d draw %d = %v, want %v", round, i, got[i], want[i])
			}
		}
		r.Reseed()
	}
	child := Split(9, 3)
	first := child.Uint64()
	child.Reseed()
	if again := child.Uint64(); again != first || again != Split(9, 3).Uint64() {
		t.Fatalf("Split child does not rewind to its own seed: %d then %d", first, again)
	}
}

// TestGoldenStream pins the engine: xoshiro256** against the reference
// implementation's outputs from state {1, 2, 3, 4}, SplitMix64's first
// output from 0, and the first eight draws of two seeded generators — which
// Reseed must reproduce.
func TestGoldenStream(t *testing.T) {
	ref := xoshiro{1, 2, 3, 4}
	for i, want := range []uint64{11520, 0, 1509978240, 1215971899390074240} {
		if got := ref.Uint64(); got != want {
			t.Fatalf("xoshiro256** from {1,2,3,4}: draw %d = %d, want %d", i, got, want)
		}
	}
	if got := mix(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64 from 0 = %#x, want 0xe220a8397b1dcdaf", got)
	}
	golden := map[uint64][8]uint64{
		1: {0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d},
		1<<63 + 5: {0x2d064cc3000e3b15, 0xe1c6ae926d7b8400, 0x212465571f7c88ec, 0x5fba95c989727ed4,
			0x7fb15b82d0250d17, 0xea678a6df8ea2977, 0x1aa0da05b848c945, 0xae34b0dc1d50826e},
	}
	for seed, want := range golden {
		r := New(seed)
		for round := 0; round < 2; round++ {
			for i, w := range want {
				if got := r.Uint64(); got != w {
					t.Fatalf("New(%d) round %d: draw %d = %#x, want %#x", seed, round, i, got, w)
				}
			}
			r.Reseed()
		}
	}
}

// chiSquareCritical is the upper 3·10⁻⁵ point of the chi-square distribution
// with df degrees of freedom (Wilson–Hilferty, z = 4).
func chiSquareCritical(df int) float64 {
	k := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-k+4*math.Sqrt(k), 3)
}

// TestInt63nUnbiased bins Int63n's draws and tests them against uniform:
// n = 3, 7 and 1000 by value, and n = 3·2⁶¹ by value mod 3. At that n a
// quarter of the raw draws fall in the rejection zone, and keeping them
// would put 3/8, 3/8 and 2/8 of the mass on the three residues.
func TestInt63nUnbiased(t *testing.T) {
	const perBin = 20000
	for _, c := range []struct {
		n    int64
		bins int
	}{{3, 3}, {7, 7}, {1000, 1000}, {3 << 61, 3}} {
		r := New(uint64(c.n))
		counts := make([]int, c.bins)
		draws := perBin * c.bins
		for i := 0; i < draws; i++ {
			v := r.Int63n(c.n)
			if v < 0 || v >= c.n {
				t.Fatalf("Int63n(%d) = %d, out of range", c.n, v)
			}
			counts[v%int64(c.bins)]++
		}
		var chi2 float64
		for _, k := range counts {
			chi2 += float64((k-perBin)*(k-perBin)) / perBin
		}
		if crit := chiSquareCritical(c.bins - 1); chi2 > crit {
			t.Errorf("Int63n(%d): chi-square %.1f over %.1f (%d bins)", c.n, chi2, crit, c.bins)
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int63n(%d) did not panic", n)
				}
			}()
			New(1).Int63n(n)
		}()
	}
}

// BenchmarkReseed is a window node's reopen: rewind the generator and take
// one draw. CI gates its allocations at zero.
func BenchmarkReseed(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reseed()
		r.Uint64()
	}
}
