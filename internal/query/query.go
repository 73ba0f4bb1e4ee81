// Package query executes the approximate linear queries ApproxIoT's root
// node supports — SUM, MEAN, and COUNT over a window's Θ store of weighted
// batches (§III-C) — and attaches the §III-D error bounds to every answer.
// The paper's prototype ran these as Kafka Streams DSL jobs; here they are
// direct aggregations over the stratified estimates.
package query

import (
	"fmt"

	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
)

// Kind selects the aggregate a query computes. Beyond the three linear
// queries, Kind carries parameterized aggregates — TopKOf(k) and
// QuantileOf(q) — encoded in high bits so every []Kind plumbing through plan
// compilation, window results, and the facade works unchanged.
type Kind int

// Supported linear queries (the paper defers joins/top-k to future work;
// TopKOf and QuantileOf below implement that future work).
const (
	Sum Kind = iota + 1
	Mean
	Count
)

// Parameterized-kind encoding: top-k kinds live at topKBase+k, quantile
// kinds at quantileBase+permille(q). The bases are far above any plain
// enum value so the spaces never collide.
const (
	topKBase     Kind = 1 << 16
	quantileBase Kind = 1 << 24
)

// TopKOf returns the Kind for a group-by top-k query: the k sub-streams
// with the largest estimated SUM, each with its Eq. 11 error bound.
// k is clamped to at least 1.
func TopKOf(k int) Kind {
	if k < 1 {
		k = 1
	}
	return topKBase + Kind(k)
}

// QuantileOf returns the Kind for an approximate quantile query at q in
// (0, 1). q is stored with permille resolution (rounded to 1/1000).
func QuantileOf(q float64) Kind {
	m := int(q*1000 + 0.5)
	if m < 1 {
		m = 1
	}
	if m > 999 {
		m = 999
	}
	return quantileBase + Kind(m)
}

// IsTopK reports whether the kind is a parameterized top-k query.
func (k Kind) IsTopK() bool { return k >= topKBase && k < quantileBase }

// K returns the k of a top-k kind, or 0 for other kinds.
func (k Kind) K() int {
	if !k.IsTopK() {
		return 0
	}
	return int(k - topKBase)
}

// IsQuantile reports whether the kind is a parameterized quantile query.
func (k Kind) IsQuantile() bool { return k >= quantileBase && k < quantileBase+1000 }

// Q returns the quantile of a quantile kind in (0, 1), or 0 for other kinds.
func (k Kind) Q() float64 {
	if !k.IsQuantile() {
		return 0
	}
	return float64(k-quantileBase) / 1000
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch {
	case k == Sum:
		return "SUM"
	case k == Mean:
		return "MEAN"
	case k == Count:
		return "COUNT"
	case k.IsTopK():
		return fmt.Sprintf("TOP%d", k.K())
	case k.IsQuantile():
		m := int(k - quantileBase)
		if m%10 == 0 {
			return fmt.Sprintf("P%d", m/10)
		}
		return fmt.Sprintf("P%g", float64(m)/10)
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result is one approximate answer in the paper's "result ± error" form.
type Result struct {
	Kind       Kind
	Estimate   stats.Estimate
	Confidence stats.Confidence
	// SampleSize is ζ summed over sub-streams: items the root aggregated.
	SampleSize int64
	// EstimatedInput is Σ ĉ_{i,b}: the estimated original item count.
	EstimatedInput float64
	// PerSubstream holds the per-stratum estimates when requested.
	PerSubstream map[stream.SourceID]stats.Estimate
	// Groups holds the ranked group estimates of a top-k query (nil
	// otherwise). Estimate is then the sum of the top-k group SUMs, with
	// variances added across independent strata.
	Groups []GroupEstimate
	// Quantile holds the full order-statistic answer of a quantile query
	// (nil otherwise). Estimate.Value mirrors Quantile.Value and
	// Estimate.Variance is ((Hi−Lo)/4)² so Bound(TwoSigma) recovers the
	// rank-interval half-width.
	Quantile *QuantileResult
}

// Bound returns the half-width of the confidence interval.
func (r Result) Bound() float64 { return r.Estimate.Bound(r.Confidence) }

// Interval returns the [lo, hi] confidence interval.
func (r Result) Interval() (lo, hi float64) { return r.Estimate.Interval(r.Confidence) }

// String formats the answer the way the root node writes it.
func (r Result) String() string {
	return fmt.Sprintf("%s = %.6g ± %.6g (%s, ζ=%d)",
		r.Kind, r.Estimate.Value, r.Bound(), r.Confidence, r.SampleSize)
}

// Engine evaluates queries over Θ stores.
type Engine struct {
	conf         stats.Confidence
	perSubstream bool
}

// Option customizes an Engine.
type Option func(*Engine)

// WithConfidence sets the error-bound level (default TwoSigma / 95%).
func WithConfidence(c stats.Confidence) Option {
	return func(e *Engine) { e.conf = c }
}

// WithPerSubstream includes per-stratum estimates in every Result.
func WithPerSubstream() Option {
	return func(e *Engine) { e.perSubstream = true }
}

// NewEngine returns a query engine.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{conf: stats.TwoSigma}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Strata folds a Θ store into per-sub-stream accumulators, sorted by source
// for deterministic iteration. Θ is grouped with stream.GroupBySource, so a
// sub-stream's batches fold in Θ order and a Θ that arrives sorted costs a
// linear check.
func Strata(theta []stream.Batch) ([]*stats.Stratum, []stream.SourceID) {
	order := make([]int32, len(theta))
	for i := range order {
		order[i] = int32(i)
	}
	starts := stream.GroupBySource(theta, order, nil)
	k := len(starts) - 1
	sources := make([]stream.SourceID, k)
	accs := make([]stats.Stratum, k)
	strata := make([]*stats.Stratum, k)
	for j := 0; j < k; j++ {
		run := order[starts[j]:starts[j+1]]
		sources[j], strata[j] = theta[run[0]].Source, &accs[j]
		for _, i := range run {
			strata[j].AddItems(theta[i].Weight, theta[i].Items)
		}
	}
	return strata, sources
}

// Run evaluates one query over the window's Θ store.
func (e *Engine) Run(kind Kind, theta []stream.Batch) Result {
	strata, sources := Strata(theta)
	return e.eval(kind, theta, strata, sources)
}

// eval answers one query kind from a Θ store and its stratification.
func (e *Engine) eval(kind Kind, theta []stream.Batch, strata []*stats.Stratum, sources []stream.SourceID) Result {
	res := Result{Kind: kind, Confidence: e.conf}
	for _, s := range strata {
		res.SampleSize += s.SampleCount()
		res.EstimatedInput += s.EstimatedCount()
	}
	switch {
	case kind == Sum:
		res.Estimate = stats.Sum(strata)
	case kind == Mean:
		res.Estimate = stats.Mean(strata)
	case kind == Count:
		res.Estimate = stats.Count(strata)
	case kind.IsTopK():
		res.Groups = topKGroups(strata, sources, kind.K())
		// The headline estimate is the combined SUM of the top-k groups;
		// strata are sampled independently so their variances add.
		for _, g := range res.Groups {
			res.Estimate.Value += g.Sum.Value
			res.Estimate.Variance += g.Sum.Variance
		}
	case kind.IsQuantile():
		qr := Quantile(theta, kind.Q())
		res.Quantile = &qr
		half := (qr.Hi - qr.Lo) / 2
		res.Estimate = stats.Estimate{Value: qr.Value, Variance: half * half / 4}
	default:
		res.Estimate = stats.Estimate{}
	}
	if e.perSubstream {
		res.PerSubstream = make(map[stream.SourceID]stats.Estimate, len(sources))
		for i, src := range sources {
			one := []*stats.Stratum{strata[i]}
			switch kind {
			case Sum:
				res.PerSubstream[src] = stats.Sum(one)
			case Mean:
				res.PerSubstream[src] = stats.Mean(one)
			case Count:
				res.PerSubstream[src] = stats.Count(one)
			}
		}
	}
	return res
}

// RunAll evaluates several query kinds over the same Θ store, sharing the
// stratification pass: Θ is folded into strata once per window, not once
// per kind, and every answer equals Run's exactly.
func (e *Engine) RunAll(kinds []Kind, theta []stream.Batch) []Result {
	strata, sources := Strata(theta)
	out := make([]Result, len(kinds))
	for i, k := range kinds {
		out[i] = e.eval(k, theta, strata, sources)
	}
	return out
}
