package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/approxiot/approxiot/internal/stream"
)

// Tests for the parameterized Kind encoding (TopKOf / QuantileOf) and their
// Engine.Run evaluation paths.

func TestParameterizedKindEncoding(t *testing.T) {
	cases := []struct {
		kind Kind
		str  string
	}{
		{TopKOf(1), "TOP1"},
		{TopKOf(3), "TOP3"},
		{TopKOf(100), "TOP100"},
		{QuantileOf(0.5), "P50"},
		{QuantileOf(0.9), "P90"},
		{QuantileOf(0.99), "P99"},
		{QuantileOf(0.999), "P99.9"},
		{QuantileOf(0.001), "P0.1"},
	}
	for _, c := range cases {
		if got := c.kind.String(); got != c.str {
			t.Errorf("%d.String() = %q, want %q", int(c.kind), got, c.str)
		}
	}
	if TopKOf(3).K() != 3 {
		t.Fatalf("TopKOf(3).K() = %d", TopKOf(3).K())
	}
	if !TopKOf(3).IsTopK() || TopKOf(3).IsQuantile() {
		t.Fatal("TopKOf predicate mismatch")
	}
	if q := QuantileOf(0.95).Q(); math.Abs(q-0.95) > 1e-12 {
		t.Fatalf("QuantileOf(0.95).Q() = %g", q)
	}
	if !QuantileOf(0.5).IsQuantile() || QuantileOf(0.5).IsTopK() {
		t.Fatal("QuantileOf predicate mismatch")
	}
	// Plain kinds must not satisfy the parameterized predicates.
	for _, k := range []Kind{Sum, Mean, Count} {
		if k.IsTopK() || k.IsQuantile() {
			t.Fatalf("%v misclassified as parameterized", k)
		}
	}
	// Clamping.
	if TopKOf(0) != TopKOf(1) {
		t.Fatal("TopKOf(0) should clamp to 1")
	}
	if QuantileOf(0) != QuantileOf(0.001) || QuantileOf(1) != QuantileOf(0.999) {
		t.Fatal("QuantileOf should clamp into (0,1)")
	}
}

func TestEngineRunTopK(t *testing.T) {
	theta := []stream.Batch{
		{Source: "a", Weight: 2, Items: items("a", 10, 10)}, // SUM 40
		{Source: "b", Weight: 1, Items: items("b", 100)},    // SUM 100
		{Source: "c", Weight: 1, Items: items("c", 1)},      // SUM 1
	}
	res := NewEngine().Run(TopKOf(2), theta)
	if res.Kind != TopKOf(2) {
		t.Fatalf("Kind = %v", res.Kind)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("Groups = %d, want 2", len(res.Groups))
	}
	if res.Groups[0].Source != "b" || res.Groups[1].Source != "a" {
		t.Fatalf("ranking = [%s, %s], want [b, a]", res.Groups[0].Source, res.Groups[1].Source)
	}
	if res.Estimate.Value != 140 {
		t.Fatalf("top-2 combined SUM = %g, want 140", res.Estimate.Value)
	}
	// Engine path must answer identically to the standalone helper.
	direct := TopK(theta, 2)
	for i := range direct {
		if direct[i] != res.Groups[i] {
			t.Fatalf("Engine group %d = %+v, TopK = %+v", i, res.Groups[i], direct[i])
		}
	}
	// SampleSize/EstimatedInput stay the generic whole-window totals.
	if res.SampleSize != 4 || res.EstimatedInput != 6 {
		t.Fatalf("ζ=%d ĉ=%g, want 4 and 6", res.SampleSize, res.EstimatedInput)
	}
	if math.IsNaN(res.Bound()) || math.IsInf(res.Bound(), 0) {
		t.Fatalf("top-k bound = %g", res.Bound())
	}
}

func TestEngineRunQuantile(t *testing.T) {
	vals := make([]float64, 0, 999)
	for i := 1; i <= 999; i++ {
		vals = append(vals, float64(i))
	}
	theta := []stream.Batch{{Source: "s", Weight: 1, Items: items("s", vals...)}}
	res := NewEngine().Run(QuantileOf(0.5), theta)
	if res.Quantile == nil {
		t.Fatal("Quantile result missing")
	}
	direct := Quantile(theta, 0.5)
	if *res.Quantile != direct {
		t.Fatalf("Engine quantile %+v != direct %+v", *res.Quantile, direct)
	}
	if res.Estimate.Value != direct.Value {
		t.Fatalf("Estimate.Value = %g, want %g", res.Estimate.Value, direct.Value)
	}
	// Bound(TwoSigma) must recover the rank-interval half-width.
	half := (direct.Hi - direct.Lo) / 2
	if math.Abs(res.Bound()-half) > 1e-9*half {
		t.Fatalf("bound %g != interval half-width %g", res.Bound(), half)
	}
	if math.Abs(res.Estimate.Value-500) > 25 {
		t.Fatalf("median of 1..999 = %g", res.Estimate.Value)
	}
}

func TestEngineRunParameterizedEmptyTheta(t *testing.T) {
	for _, k := range []Kind{TopKOf(3), QuantileOf(0.9)} {
		res := NewEngine().Run(k, nil)
		if res.Estimate.Value != 0 || res.SampleSize != 0 {
			t.Fatalf("%v over empty Θ produced %+v", k, res)
		}
		if math.IsNaN(res.Bound()) {
			t.Fatalf("%v empty bound is NaN", k)
		}
	}
}

func TestRunAllMixedKinds(t *testing.T) {
	theta := []stream.Batch{
		{Source: "a", Weight: 1, Items: items("a", 1, 2, 3)},
		{Source: "b", Weight: 1, Items: items("b", 10)},
	}
	kinds := []Kind{Sum, Count, TopKOf(1), QuantileOf(0.5)}
	results := NewEngine().RunAll(kinds, theta)
	if len(results) != 4 {
		t.Fatalf("RunAll returned %d results", len(results))
	}
	for i, k := range kinds {
		if results[i].Kind != k {
			t.Fatalf("result %d kind = %v, want %v", i, results[i].Kind, k)
		}
	}
	if results[2].Groups[0].Source != "b" {
		t.Fatalf("top-1 group = %s, want b", results[2].Groups[0].Source)
	}
	if results[3].Quantile == nil {
		t.Fatal("quantile missing from RunAll")
	}
}

// RunAll stratifies Θ once and answers every kind from the shared strata;
// each answer must be Run's, to the bit — linear, top-k and quantile kinds,
// per-sub-stream estimates included, over a Θ with several lineages (and
// weights) per sub-stream.
func TestRunAllEqualsRunPerKind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var theta []stream.Batch
	for b := 0; b < 40; b++ {
		src := stream.SourceID(fmt.Sprintf("s%d", rng.Intn(9)))
		batch := stream.Batch{Source: src, Weight: 1 + float64(rng.Intn(4))*0.75}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			batch.Items = append(batch.Items, stream.Item{Source: src, Value: rng.NormFloat64()*50 + 10})
		}
		theta = append(theta, batch)
	}
	kinds := []Kind{Sum, Mean, Count, TopKOf(3), TopKOf(50), QuantileOf(0.5), QuantileOf(0.9)}
	for name, e := range map[string]*Engine{"plain": NewEngine(), "per-substream": NewEngine(WithPerSubstream())} {
		for _, th := range [][]stream.Batch{theta, nil} {
			all := e.RunAll(kinds, th)
			for i, k := range kinds {
				if one := e.Run(k, th); !reflect.DeepEqual(all[i], one) {
					t.Errorf("%s, %d batches: RunAll[%v] = %+v, Run = %+v", name, len(th), k, all[i], one)
				}
			}
		}
	}
}
