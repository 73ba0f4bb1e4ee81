package approxiot

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/workload"
	"github.com/approxiot/approxiot/internal/xrand"
)

// The extended query surface: TopK, Quantile, Replay — the paper's
// §VIII future-work items, exercised through the public facade.

func TestTopKThroughEstimator(t *testing.T) {
	e := NewEstimator(0.25, WithSeed(3), WithQueries(Sum))
	rng := xrand.New(1)
	// Three zones with clearly ordered totals.
	for i := 0; i < 30000; i++ {
		e.Add("downtown", rng.Normal(30, 5))
		if i%3 == 0 {
			e.Add("airport", rng.Normal(60, 8))
		}
		if i%100 == 0 {
			e.Add("suburb", rng.Normal(10, 2))
		}
	}
	_, theta := e.CloseTheta()
	top := TopK(theta, 2)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d groups", len(top))
	}
	// downtown ≈ 900k, airport ≈ 600k, suburb ≈ 3k.
	if top[0].Source != "downtown" || top[1].Source != "airport" {
		t.Fatalf("ranking = [%s, %s], want [downtown, airport]", top[0].Source, top[1].Source)
	}
	if top[0].Sum.Value < 800000 || top[0].Sum.Value > 1000000 {
		t.Fatalf("downtown total = %g, want ~900k", top[0].Sum.Value)
	}
}

func TestQuantileThroughEstimator(t *testing.T) {
	e := NewEstimator(0.2, WithSeed(5), WithQueries(Sum))
	rng := xrand.New(2)
	for i := 0; i < 50000; i++ {
		e.Add("s", rng.Normal(1000, 100))
	}
	_, theta := e.CloseTheta()
	med := Quantile(theta, 0.5)
	if math.Abs(med.Value-1000) > 15 {
		t.Fatalf("median = %g, want ~1000", med.Value)
	}
	p99 := Quantile(theta, 0.99)
	want := 1000 + 2.326*100 // z(0.99)·σ
	if math.Abs(p99.Value-want) > 40 {
		t.Fatalf("p99 = %g, want ~%g", p99.Value, want)
	}
	if med.Lo >= med.Hi {
		t.Fatalf("degenerate interval [%g, %g]", med.Lo, med.Hi)
	}
}

func TestReplayThroughSimulate(t *testing.T) {
	// Record a synthetic trace, then replay it through the full tree: the
	// pipeline must treat recorded data exactly like generated data.
	epoch := time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)
	gen := workload.GaussianMicro(9, 200)
	var items []Item
	var truth float64
	for w := 0; w < 4; w++ {
		for _, it := range gen.Generate(epoch.Add(time.Duration(w)*time.Second), time.Second) {
			items = append(items, it)
			truth += it.Value
		}
	}

	// One replayed source feeds the tree (others idle).
	source := func(i int) Source {
		if i == 0 {
			return NewReplay(items)
		}
		return NewGenerator(uint64(i)) // no sub-streams: silent
	}
	res, err := Simulate(Config{Fraction: 0.5, Queries: []QueryKind{Sum, Count}, Seed: 4},
		source, 5*time.Second)
	if err != nil {
		t.Fatalf("Simulate(replay): %v", err)
	}
	if res.Produced != int64(len(items)) {
		t.Fatalf("replayed %d of %d items", res.Produced, len(items))
	}
	if got := res.TotalEstimate(Count); math.Abs(got-float64(len(items))) > 1e-6 {
		t.Fatalf("count invariant on replayed trace: %g vs %d", got, len(items))
	}
	if loss := res.AccuracyLoss(Sum); loss > 0.05 {
		t.Fatalf("replay accuracy loss = %g", loss)
	}
}

func TestReplaySpeedupThroughFacade(t *testing.T) {
	base := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	items := []Item{
		{Source: "a", Value: 1, Ts: base},
		{Source: "a", Value: 2, Ts: base.Add(10 * time.Second)},
	}
	r := workload.NewReplay(items, workload.WithSpeedup(20)) // 10s → 0.5s
	out := r.Generate(base, time.Second)
	if len(out) != 2 {
		t.Fatalf("sped-up replay yielded %d items, want 2", len(out))
	}
}
