package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordAgainstDirectComputation(t *testing.T) {
	values := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, v := range values {
		w.Add(v)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g, want 5", w.Mean())
	}
	// Sample variance of the classic 2,4,4,4,5,5,7,9 set: Σ(x−5)² = 32, /7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %g, want %g", w.Variance(), 32.0/7.0)
	}
	if !almostEqual(w.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %g, want 40", w.Sum())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Mean() != 0 || w.N() != 0 {
		t.Fatal("zero-value Welford not empty")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Fatalf("Variance with n=1 = %g, want 0", w.Variance())
	}
	if w.Mean() != 3 {
		t.Fatalf("Mean = %g, want 3", w.Mean())
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Classic catastrophic-cancellation case: large offset, small spread.
	var w Welford
	for _, v := range []float64{1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16} {
		w.Add(v)
	}
	if !almostEqual(w.Variance(), 30, 1e-6) {
		t.Fatalf("Variance = %g, want 30", w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	r := xrand.New(3)
	var all, left, right Welford
	for i := 0; i < 1000; i++ {
		v := r.Normal(50, 12)
		all.Add(v)
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	left.Merge(right)
	if left.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), all.N())
	}
	if !almostEqual(left.Mean(), all.Mean(), 1e-9) {
		t.Fatalf("merged Mean = %g, want %g", left.Mean(), all.Mean())
	}
	if !almostEqual(left.Variance(), all.Variance(), 1e-6) {
		t.Fatalf("merged Variance = %g, want %g", left.Variance(), all.Variance())
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.Add(5)
	b.Add(7)
	a.Merge(b) // empty <- non-empty
	if a.N() != 2 || !almostEqual(a.Mean(), 6, 1e-12) {
		t.Fatalf("merge into empty: n=%d mean=%g", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(c) // non-empty <- empty
	if a.N() != 2 || !almostEqual(a.Mean(), 6, 1e-12) {
		t.Fatalf("merge of empty changed accumulator: n=%d mean=%g", a.N(), a.Mean())
	}
}

func TestConfidenceLevels(t *testing.T) {
	tests := []struct {
		c    Confidence
		z    float64
		p    float64
		name string
	}{
		{OneSigma, 1, 0.68, "68%"},
		{TwoSigma, 2, 0.95, "95%"},
		{ThreeSigma, 3, 0.997, "99.7%"},
		{Confidence(0), 2, 0.95, "95%"}, // unknown defaults to two sigma
	}
	for _, tc := range tests {
		if tc.c.Z() != tc.z {
			t.Errorf("%v.Z() = %g, want %g", tc.c, tc.c.Z(), tc.z)
		}
		if tc.c.Probability() != tc.p {
			t.Errorf("%v.Probability() = %g, want %g", tc.c, tc.c.Probability(), tc.p)
		}
		if tc.c.String() != tc.name {
			t.Errorf("String() = %q, want %q", tc.c.String(), tc.name)
		}
	}
}

func TestStratumPaperFigure3Example(t *testing.T) {
	// Fig. 3: Θ at root C holds (w=3, {item 5}) and (w=3, {item 3});
	// the paper computes the estimated sub-stream sum as 3·5 + 3·3 = 24.
	var s Stratum
	s.AddBatch(3, []float64{5})
	s.AddBatch(3, []float64{3})
	if got := s.Sum(); got != 24 {
		t.Fatalf("Sum = %g, want 24 (paper's Fig. 3 worked example)", got)
	}
	// ĉ = 1·3 + 1·3 = 6 — exactly the six original items at node A.
	if got := s.EstimatedCount(); got != 6 {
		t.Fatalf("EstimatedCount = %g, want 6", got)
	}
	if got := s.SampleCount(); got != 2 {
		t.Fatalf("SampleCount = %d, want 2", got)
	}
}

// AddItems is the no-copy form of AddBatch: identical state, to the bit.
func TestStratumAddItemsEqualsAddBatch(t *testing.T) {
	var a, b Stratum
	for batch := 0; batch < 5; batch++ {
		vals := []float64{0.1, 1e9, -3.7, 2.5e-7, 42, float64(batch) / 3}
		items := make([]stream.Item, len(vals))
		for i, v := range vals {
			items[i].Value = v
		}
		a.AddBatch(1.5+float64(batch), vals)
		b.AddItems(1.5+float64(batch), items)
	}
	if a != b {
		t.Fatalf("AddItems state %+v, AddBatch state %+v", b, a)
	}
}

func TestStratumAddWeightedMatchesAddBatch(t *testing.T) {
	var a, b Stratum
	a.AddBatch(2.5, []float64{1, 2, 3})
	for _, v := range []float64{1, 2, 3} {
		b.AddWeighted(2.5, v)
	}
	if a.Sum() != b.Sum() || a.EstimatedCount() != b.EstimatedCount() || a.SampleCount() != b.SampleCount() {
		t.Fatalf("AddWeighted diverges from AddBatch: %+v vs %+v", a, b)
	}
}

func TestSumVarianceHandComputed(t *testing.T) {
	// ζ=4 samples {2,4,6,8} each with weight 2.5 → ĉ=10, s²=20/3.
	// Eq. 11: ĉ(ĉ−ζ)s²/ζ = 10·6·(20/3)/4 = 100.
	var s Stratum
	s.AddBatch(2.5, []float64{2, 4, 6, 8})
	if !almostEqual(s.SumVariance(), 100, 1e-9) {
		t.Fatalf("SumVariance = %g, want 100", s.SumVariance())
	}
}

func TestSumVarianceZeroWhenFullSample(t *testing.T) {
	// Weight 1 everywhere means the reservoir kept everything: ĉ = ζ and
	// the finite-population correction zeroes the variance.
	var s Stratum
	s.AddBatch(1, []float64{1, 5, 9, 13})
	if got := s.SumVariance(); got != 0 {
		t.Fatalf("SumVariance = %g, want 0 for a census", got)
	}
}

func TestSumVarianceDegenerateCounts(t *testing.T) {
	var s Stratum
	if s.SumVariance() != 0 {
		t.Fatal("empty stratum variance != 0")
	}
	s.AddBatch(10, []float64{4})
	if s.SumVariance() != 0 {
		t.Fatal("single-sample stratum variance != 0 (undefined s²)")
	}
}

func TestSumCombinesStrataIndependently(t *testing.T) {
	var a, b Stratum
	a.AddBatch(2, []float64{1, 3})   // sum 8, ĉ 4
	b.AddBatch(4, []float64{10, 20}) // sum 120, ĉ 8
	est := Sum([]*Stratum{&a, &b})
	if est.Value != 128 {
		t.Fatalf("Sum value = %g, want 128", est.Value)
	}
	wantVar := a.SumVariance() + b.SumVariance() // Eq. 10: variances add
	if !almostEqual(est.Variance, wantVar, 1e-9) {
		t.Fatalf("Sum variance = %g, want %g", est.Variance, wantVar)
	}
}

func TestMeanHandComputed(t *testing.T) {
	// Stratum A: ĉ=4, mean 2. Stratum B: ĉ=8, mean 15.
	// MEAN* = (4·2 + 8·15)/12 = 128/12.
	var a, b Stratum
	a.AddBatch(2, []float64{1, 3})
	b.AddBatch(4, []float64{10, 20})
	est := Mean([]*Stratum{&a, &b})
	if !almostEqual(est.Value, 128.0/12.0, 1e-9) {
		t.Fatalf("Mean value = %g, want %g", est.Value, 128.0/12.0)
	}
	if est.Variance <= 0 {
		t.Fatalf("Mean variance = %g, want > 0", est.Variance)
	}
}

func TestMeanEmpty(t *testing.T) {
	if est := Mean(nil); est.Value != 0 || est.Variance != 0 {
		t.Fatalf("Mean(nil) = %+v, want zero estimate", est)
	}
}

func TestCountSumsEstimatedCounts(t *testing.T) {
	var a, b Stratum
	a.AddBatch(3, []float64{1, 1})
	b.AddBatch(1, []float64{1})
	est := Count([]*Stratum{&a, &b})
	if est.Value != 7 {
		t.Fatalf("Count = %g, want 7", est.Value)
	}
	if est.Variance != 0 {
		t.Fatalf("Count variance = %g, want 0 (Eq. 8 invariant)", est.Variance)
	}
}

func TestEstimateBoundAndInterval(t *testing.T) {
	e := Estimate{Value: 100, Variance: 25} // σ = 5
	if got := e.Bound(OneSigma); got != 5 {
		t.Fatalf("OneSigma bound = %g, want 5", got)
	}
	if got := e.Bound(ThreeSigma); got != 15 {
		t.Fatalf("ThreeSigma bound = %g, want 15", got)
	}
	lo, hi := e.Interval(TwoSigma)
	if lo != 90 || hi != 110 {
		t.Fatalf("Interval = [%g,%g], want [90,110]", lo, hi)
	}
}

func TestAccuracyLoss(t *testing.T) {
	tests := []struct {
		approx, exact, want float64
	}{
		{100, 100, 0},
		{90, 100, 0.1},
		{110, 100, 0.1},
		{-90, -100, 0.1},
		{0, 0, 0},
	}
	for _, tc := range tests {
		if got := AccuracyLoss(tc.approx, tc.exact); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("AccuracyLoss(%g,%g) = %g, want %g", tc.approx, tc.exact, got, tc.want)
		}
	}
	if got := AccuracyLoss(5, 0); !math.IsInf(got, 1) {
		t.Errorf("AccuracyLoss(5,0) = %g, want +Inf", got)
	}
}

// Property: merging any split of a value stream reproduces sequential moments.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(seed uint64, cutRaw uint8) bool {
		r := xrand.New(seed)
		n := 64 + int(cutRaw)%64
		cut := int(cutRaw) % n
		var all, left, right Welford
		for i := 0; i < n; i++ {
			v := r.Normal(0, 100)
			all.Add(v)
			if i < cut {
				left.Add(v)
			} else {
				right.Add(v)
			}
		}
		left.Merge(right)
		return left.N() == all.N() &&
			almostEqual(left.Mean(), all.Mean(), 1e-6) &&
			almostEqual(left.Variance(), all.Variance(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: variances are never negative, whatever the weights and values.
func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var s Stratum
		batches := 1 + r.Intn(5)
		for b := 0; b < batches; b++ {
			w := 1 + r.Float64()*9
			vals := make([]float64, 1+r.Intn(20))
			for i := range vals {
				vals[i] = r.Normal(0, 1000)
			}
			s.AddBatch(w, vals)
		}
		return s.SumVariance() >= 0 && s.meanVarianceTerm() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the CLT interval from Eq. 11 actually covers the true total at
// roughly its nominal rate when sampling uniformly at random.
func TestSumIntervalCoverage(t *testing.T) {
	const (
		trials     = 300
		population = 2000
		sampleSize = 200
	)
	r := xrand.New(123)
	pop := make([]float64, population)
	var truth float64
	for i := range pop {
		pop[i] = r.Normal(100, 25)
		truth += pop[i]
	}
	covered := 0
	for tr := 0; tr < trials; tr++ {
		perm := r.Perm(population)
		var s Stratum
		w := float64(population) / float64(sampleSize)
		for _, idx := range perm[:sampleSize] {
			s.AddWeighted(w, pop[idx])
		}
		est := Sum([]*Stratum{&s})
		lo, hi := est.Interval(TwoSigma)
		if truth >= lo && truth <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.88 { // nominal 95%, generous slack for 300 trials
		t.Fatalf("2σ interval covered truth in %.1f%% of trials, want >= 88%%", rate*100)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i))
	}
}

func BenchmarkStratumAddBatch(b *testing.B) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	var s Stratum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddBatch(1.5, vals)
	}
}
