package approxiot

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/workload"
)

func gaussianSources(seed uint64, rate float64) func(i int) Source {
	return func(i int) Source {
		return workload.GaussianMicro(seed+uint64(i)*101, rate)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.normalize()
	if c.Strategy != WHS {
		t.Errorf("default strategy = %v, want WHS", c.Strategy)
	}
	if c.Fraction != 0.1 {
		t.Errorf("default fraction = %g, want 0.1", c.Fraction)
	}
	if c.Tree.Sources != 8 {
		t.Errorf("default tree sources = %d, want testbed's 8", c.Tree.Sources)
	}
	if len(c.Queries) != 1 || c.Queries[0] != Sum {
		t.Errorf("default queries = %v, want [Sum]", c.Queries)
	}
	if c.Confidence != TwoSigma {
		t.Errorf("default confidence = %v, want TwoSigma", c.Confidence)
	}
	if c.Partitions != 1 || c.RootShards != 1 {
		t.Errorf("default partitions/shards = %d/%d, want 1/1", c.Partitions, c.RootShards)
	}
	if c.LayerShards != 1 {
		t.Errorf("default layer shards = %d, want 1", c.LayerShards)
	}
	// RootShards and LayerShards clamp to Partitions rather than erroring
	// at the facade.
	c = Config{Partitions: 2, RootShards: 8, LayerShards: 8}.normalize()
	if c.RootShards != 2 {
		t.Errorf("RootShards = %d, want clamped to Partitions 2", c.RootShards)
	}
	if c.LayerShards != 2 {
		t.Errorf("LayerShards = %d, want clamped to Partitions 2", c.LayerShards)
	}
	// The uniform knob expands to one entry per edge layer (never the root).
	if got := c.layerShards(); len(got) != c.Tree.RootLayer() || got[0] != 2 {
		t.Errorf("layerShards() = %v, want %d entries of 2", got, c.Tree.RootLayer())
	}
	if got := (Config{}).normalize().layerShards(); got != nil {
		t.Errorf("single-member layerShards() = %v, want nil", got)
	}
}

func TestStrategyString(t *testing.T) {
	tests := map[Strategy]string{
		WHS:         "ApproxIoT",
		SRS:         "SRS",
		Native:      "Native",
		ParallelWHS: "ApproxIoT-parallel",
	}
	for s, want := range tests {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestSimulateFacade(t *testing.T) {
	res, err := Simulate(Config{Fraction: 0.5, Queries: []QueryKind{Sum, Count}, Seed: 5},
		gaussianSources(1, 200), 4*time.Second)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Produced == 0 || len(res.Windows) == 0 {
		t.Fatalf("empty simulation: %+v", res)
	}
	if loss := res.AccuracyLoss(Sum); loss > 0.02 {
		t.Fatalf("accuracy loss = %g at 50%%, want < 2%%", loss)
	}
}

func TestSimulateAllStrategies(t *testing.T) {
	for _, s := range []Strategy{WHS, SRS, Native, ParallelWHS} {
		res, err := Simulate(Config{Strategy: s, Fraction: 0.3, Queries: []QueryKind{Sum, Count}},
			gaussianSources(2, 100), 3*time.Second)
		if err != nil {
			t.Fatalf("Simulate(%v): %v", s, err)
		}
		if res.Produced == 0 {
			t.Fatalf("Simulate(%v) generated nothing", s)
		}
		if s == Native && res.AccuracyLoss(Sum) > 1e-9 {
			t.Fatalf("native loss = %g", res.AccuracyLoss(Sum))
		}
	}
}

func TestRunFacadeLive(t *testing.T) {
	res, err := Run(Config{Fraction: 0.25, Queries: []QueryKind{Sum, Count}, Seed: 9},
		gaussianSources(3, 1000), 8000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Produced != 8000 {
		t.Fatalf("produced = %d, want 8000", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("live count invariant broken: %g vs %d", res.EstimateCount, res.Produced)
	}
}

func TestRunFacadePartitioned(t *testing.T) {
	res, err := Run(Config{Fraction: 0.25, Queries: []QueryKind{Sum, Count},
		Partitions: 4, RootShards: 4, Seed: 9},
		gaussianSources(3, 1000), 8000)
	if err != nil {
		t.Fatalf("Run partitioned: %v", err)
	}
	if res.Produced != 8000 {
		t.Fatalf("produced = %d, want 8000", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("sharded live count invariant broken: %g vs %d", res.EstimateCount, res.Produced)
	}
}

func TestRunFacadeLayerSharded(t *testing.T) {
	// Every tier of the tree scaled out through the facade: 4-partition
	// topics, every edge node a 4-member group, a 4-shard root — the count
	// invariant must survive the full scale-out.
	res, err := Run(Config{Fraction: 0.25, Queries: []QueryKind{Sum, Count},
		Partitions: 4, RootShards: 4, LayerShards: 4, Seed: 9},
		gaussianSources(3, 1000), 8000)
	if err != nil {
		t.Fatalf("Run layer-sharded: %v", err)
	}
	if res.Produced != 8000 {
		t.Fatalf("produced = %d, want 8000", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("layer-sharded live count invariant broken: %g vs %d", res.EstimateCount, res.Produced)
	}
	if res.DecodeErrors != 0 {
		t.Fatalf("clean run reported %d decode errors", res.DecodeErrors)
	}
}

func TestRunFacadeAdaptive(t *testing.T) {
	// Config.Adaptive closes the §IV-B loop end to end through the facade:
	// the fraction trajectory is reported, the count invariant holds while
	// the fraction moves, and the run carries live telemetry.
	ctl := NewFeedbackController(0.1, 0.02)
	res, err := Run(Config{Queries: []QueryKind{Sum, Count},
		Partitions: 4, RootShards: 2, LayerShards: 2, Seed: 9,
		Adaptive: ctl, SourceRate: 12000},
		gaussianSources(3, 1000), 12000)
	if err != nil {
		t.Fatalf("Run adaptive: %v", err)
	}
	if res.Produced != 12000 {
		t.Fatalf("produced = %d, want 12000", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("adaptive live count invariant broken: %g vs %d", res.EstimateCount, res.Produced)
	}
	if len(res.Fractions) != len(res.Windows) || len(res.Fractions) == 0 {
		t.Fatalf("fraction trajectory %d entries over %d windows", len(res.Fractions), len(res.Windows))
	}
	if res.Latency.Count() == 0 || res.Bandwidth.Total() == 0 || len(res.Nodes) == 0 {
		t.Fatal("live telemetry missing on adaptive run")
	}

	// The same controller knob drives Simulate (shared-memory form).
	sim, err := Simulate(Config{Queries: []QueryKind{Sum, Count}, Seed: 9,
		Adaptive: NewFeedbackController(0.1, 0.02)},
		gaussianSources(3, 250), 6*time.Second)
	if err != nil {
		t.Fatalf("Simulate adaptive: %v", err)
	}
	if len(sim.Fractions) != len(sim.Windows) || len(sim.Fractions) == 0 {
		t.Fatalf("sim fraction trajectory %d entries over %d windows", len(sim.Fractions), len(sim.Windows))
	}
}

func TestEstimatorQuickstartFlow(t *testing.T) {
	e := NewEstimator(0.2, WithSeed(7))
	for i := 0; i < 10000; i++ {
		e.Add("sensor-a", 10)
		if i%10 == 0 {
			e.Add("sensor-b", 1000)
		}
	}
	if e.Observed() != 11000 {
		t.Fatalf("Observed = %d, want 11000", e.Observed())
	}
	win := e.Close()
	truth := 10.0*10000 + 1000.0*1000
	sum := win.Result(Sum)
	if sum.Estimate.Value <= 0 {
		t.Fatal("no SUM estimate")
	}
	if loss := math.Abs(sum.Estimate.Value-truth) / truth; loss > 0.05 {
		t.Fatalf("estimator loss = %g, want < 5%%", loss)
	}
	// Constant-valued strata: the error bound should be small relative to
	// the estimate.
	if sum.Bound() > 0.05*sum.Estimate.Value {
		t.Fatalf("bound %g implausibly wide for constant strata", sum.Bound())
	}
	count := win.Result(Count)
	if math.Abs(count.Estimate.Value-11000) > 1e-6 {
		t.Fatalf("COUNT = %g, want exactly 11000 (Eq. 8)", count.Estimate.Value)
	}
	// Per-substream breakdown is on for the estimator.
	if len(sum.PerSubstream) != 2 {
		t.Fatalf("per-substream entries = %d, want 2", len(sum.PerSubstream))
	}
}

func TestEstimatorWindowsAreIndependent(t *testing.T) {
	e := NewEstimator(0.5, WithSeed(1), WithQueries(Count))
	e.Add("s", 1)
	e.Add("s", 1)
	first := e.Close()
	e.Add("s", 1)
	second := e.Close()
	if first.Result(Count).Estimate.Value != 2 {
		t.Fatalf("first window count = %g, want 2", first.Result(Count).Estimate.Value)
	}
	if second.Result(Count).Estimate.Value != 1 {
		t.Fatalf("second window count = %g, want 1", second.Result(Count).Estimate.Value)
	}
}

// An estimator closes window after window on one sampler it never
// reseeds; a closed window the caller has dropped must not stay reachable
// through it, or a long-lived estimator grows by a window's items per Close.
func TestEstimatorRetainsNoClosedWindow(t *testing.T) {
	const perWindow = 2000
	e := NewEstimator(0.5, WithSeed(3), WithQueries(Count))
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	closeWindows := func(n int) {
		for w := 0; w < n; w++ {
			items := make([]Item, perWindow)
			for i := range items {
				items[i] = Item{Source: "up", Value: float64(i)}
			}
			e.AddBatch(Batch{Source: "up", Weight: 1, Items: items})
			e.Close()
		}
	}
	closeWindows(20)
	before := live()
	closeWindows(600)
	after := live()
	runtime.KeepAlive(e)
	// Keeping the closed windows' Ψ adds ~12 MB here; keeping none adds
	// nothing measurable.
	if after > before && after-before > 2<<20 {
		t.Fatalf("live heap grew %d kB over 600 closed windows", (after-before)>>10)
	}
}

func TestEstimatorInvalidFractionKeepsEverything(t *testing.T) {
	e := NewEstimator(-3, WithQueries(Count))
	for i := 0; i < 100; i++ {
		e.Add("s", 1)
	}
	win := e.Close()
	if win.SampleSize != 100 {
		t.Fatalf("invalid fraction sampled %d of 100, want census", win.SampleSize)
	}
}

func TestEstimatorAddBatchWeighted(t *testing.T) {
	e := NewEstimator(1, WithQueries(Sum, Count))
	e.AddBatch(Batch{Source: "up", Weight: 3, Items: []Item{
		{Source: "up", Value: 5}, {Source: "up", Value: 3},
	}})
	win := e.Close()
	if got := win.Result(Sum).Estimate.Value; got != 24 {
		t.Fatalf("weighted SUM = %g, want 3·5+3·3 = 24 (Fig. 3)", got)
	}
	if got := win.Result(Count).Estimate.Value; got != 6 {
		t.Fatalf("weighted COUNT = %g, want 6", got)
	}
}

func TestNewGeneratorFacade(t *testing.T) {
	g := NewGenerator(1, SubstreamSpec{Source: "x", Rate: 100, Value: workload.Constant{V: 2}})
	items := g.Generate(time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC), time.Second)
	if len(items) != 100 {
		t.Fatalf("generated %d, want 100", len(items))
	}
}

func TestFeedbackControllerFacade(t *testing.T) {
	fc := NewFeedbackController(0.1, 0.01)
	if fc.Fraction() != 0.1 {
		t.Fatalf("initial fraction = %g", fc.Fraction())
	}
}
