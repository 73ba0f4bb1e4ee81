// Package stats implements the statistics ApproxIoT's root node needs:
// streaming moments (Welford), the stratified variance estimators of the
// paper's §III-D (Equations 10–14), and confidence bounds from the
// "68-95-99.7" rule. It replaces the paper prototype's dependency on the
// Apache Commons Math library.
package stats

import (
	"fmt"
	"math"

	"github.com/approxiot/approxiot/internal/stream"
)

// Welford accumulates count, mean and variance of a value stream in one pass
// using Welford's numerically-stable recurrence. The zero value is an empty
// accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge folds another accumulator into this one (Chan et al. parallel
// variance). Used by the §III-E parallel samplers to combine worker-local
// moments.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns the running total.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Variance returns the unbiased sample variance (n−1 denominator, Eq. 12),
// or 0 when fewer than two observations have been seen.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Confidence selects an error-bound level under the 68-95-99.7 rule [14]:
// the approximate result lies within z standard deviations of the exact
// result with the stated probability.
type Confidence int

// Confidence levels, in increasing width.
const (
	OneSigma   Confidence = 1 // 68%
	TwoSigma   Confidence = 2 // 95%
	ThreeSigma Confidence = 3 // 99.7%
)

// Z returns the number of standard deviations for the level.
func (c Confidence) Z() float64 {
	switch c {
	case OneSigma, TwoSigma, ThreeSigma:
		return float64(c)
	default:
		return float64(TwoSigma)
	}
}

// Probability returns the coverage probability for the level.
func (c Confidence) Probability() float64 {
	switch c {
	case OneSigma:
		return 0.68
	case ThreeSigma:
		return 0.997
	default:
		return 0.95
	}
}

// String implements fmt.Stringer ("95%" etc.).
func (c Confidence) String() string {
	return fmt.Sprintf("%g%%", c.Probability()*100)
}

// Stratum accumulates, at the root node, everything Equations 11–14 need for
// one sub-stream S_i: the moments of the sampled item values (ζ, mean, s²),
// the weighted sum estimate SUM_i (Eq. 3), and the estimated original count
// ĉ_{i,b} = Σ |I|·W^out, which Eq. 8 proves equals the ground-truth count.
type Stratum struct {
	moments     Welford
	weightedSum float64
	estCount    float64
}

// AddBatch folds one (W^out, I) pair from Θ into the stratum.
func (s *Stratum) AddBatch(weight float64, values []float64) {
	var sum float64
	for _, v := range values {
		s.moments.Add(v)
		sum += v
	}
	s.weightedSum += sum * weight
	s.estCount += float64(len(values)) * weight
}

// AddItems is AddBatch over the pair's items themselves — the same additions
// in the same order, so the same bits — without a copy of their values.
func (s *Stratum) AddItems(weight float64, items []stream.Item) {
	var sum float64
	for i := range items {
		v := items[i].Value
		s.moments.Add(v)
		sum += v
	}
	s.weightedSum += sum * weight
	s.estCount += float64(len(items)) * weight
}

// AddWeighted folds a single item carrying weight into the stratum.
func (s *Stratum) AddWeighted(weight, value float64) {
	s.moments.Add(value)
	s.weightedSum += value * weight
	s.estCount += weight
}

// Sum returns SUM_i, the Eq. 3 estimate of the sub-stream total.
func (s *Stratum) Sum() float64 { return s.weightedSum }

// Mean returns the estimated sub-stream mean SUM_i / ĉ_{i,b}.
func (s *Stratum) Mean() float64 {
	if s.estCount == 0 {
		return 0
	}
	return s.weightedSum / s.estCount
}

// SampleCount returns ζ, the number of sampled items seen at the root.
func (s *Stratum) SampleCount() int64 { return s.moments.N() }

// EstimatedCount returns ĉ_{i,b}, the estimated original item count.
func (s *Stratum) EstimatedCount() float64 { return s.estCount }

// SumVariance returns V̂ar(SUM_i) = ĉ·(ĉ−ζ)·s²/ζ (the Eq. 11 summand).
// With ζ < 2 the sample variance is undefined and the term is 0; the finite-
// population factor (ĉ−ζ) is clamped at 0 so rounding in ĉ never produces a
// negative variance.
func (s *Stratum) SumVariance() float64 {
	zeta := float64(s.moments.N())
	if zeta < 2 {
		return 0
	}
	fpc := s.estCount - zeta
	if fpc < 0 {
		fpc = 0
	}
	return s.estCount * fpc * s.moments.Variance() / zeta
}

// meanVarianceTerm returns V̂ar(MEAN_i) = s²/ζ · (ĉ−ζ)/ĉ (Eq. 14 before the
// φ² factor).
func (s *Stratum) meanVarianceTerm() float64 {
	zeta := float64(s.moments.N())
	if zeta < 2 || s.estCount <= 0 {
		return 0
	}
	fpc := (s.estCount - zeta) / s.estCount
	if fpc < 0 {
		fpc = 0
	}
	return s.moments.Variance() / zeta * fpc
}

// Estimate is an approximate query answer with its estimated variance.
type Estimate struct {
	Value    float64
	Variance float64
}

// Bound returns the half-width of the confidence interval at level c, i.e.
// z·σ̂. Results are reported as Value ± Bound.
func (e Estimate) Bound(c Confidence) float64 {
	return c.Z() * math.Sqrt(e.Variance)
}

// Interval returns the confidence interval [lo, hi] at level c.
func (e Estimate) Interval(c Confidence) (lo, hi float64) {
	b := e.Bound(c)
	return e.Value - b, e.Value + b
}

// String formats the estimate at 95% confidence, the form the paper's root
// node writes ("result ± error").
func (e Estimate) String() string {
	return fmt.Sprintf("%.6g ± %.6g", e.Value, e.Bound(TwoSigma))
}

// Sum combines per-stratum estimates into SUM* (Eq. 4) with its variance
// (Eq. 10 + Eq. 11): strata are sampled independently, so variances add.
func Sum(strata []*Stratum) Estimate {
	var est Estimate
	for _, s := range strata {
		est.Value += s.Sum()
		est.Variance += s.SumVariance()
	}
	return est
}

// Mean combines per-stratum estimates into MEAN* (Eq. 13) with its variance
// (Eq. 14): MEAN* = Σ φ_i·MEAN_i with φ_i = ĉ_i / Σ ĉ, and
// V̂ar(MEAN*) = Σ φ_i²·V̂ar(MEAN_i).
func Mean(strata []*Stratum) Estimate {
	var total float64
	for _, s := range strata {
		total += s.EstimatedCount()
	}
	if total == 0 {
		return Estimate{}
	}
	var est Estimate
	for _, s := range strata {
		phi := s.EstimatedCount() / total
		est.Value += phi * s.Mean()
		est.Variance += phi * phi * s.meanVarianceTerm()
	}
	return est
}

// Count combines per-stratum estimated counts into the estimated total
// number of items across all sub-streams. Its value is exact under Eq. 8
// (the count invariant), so the variance is reported as 0.
func Count(strata []*Stratum) Estimate {
	var est Estimate
	for _, s := range strata {
		est.Value += s.EstimatedCount()
	}
	return est
}

// AccuracyLoss returns |approx − exact| / |exact|, the paper's accuracy-loss
// metric (§V-A). A zero exact value with nonzero approx yields +Inf; both
// zero yields 0.
func AccuracyLoss(approx, exact float64) float64 {
	if exact == 0 {
		if approx == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(approx-exact) / math.Abs(exact)
}
