package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
)

// microSource builds the per-source generator: the Gaussian micro mix with
// each sub-stream's rate split evenly across the 8 source nodes.
func microSource(seed uint64, perStreamRate float64) func(i int) workload.Source {
	return func(i int) workload.Source {
		return workload.GaussianMicro(seed+uint64(i)*1000, perStreamRate)
	}
}

func testbedConfig(fraction float64) SimConfig {
	return SimConfig{
		Spec:       topology.Testbed(),
		Source:     microSource(1, 250), // 4 sub-streams × 250/s × 8 sources = 8000 items/s
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: fraction},
		Duration:   5 * time.Second,
		Queries:    []query.Kind{query.Sum, query.Count},
		Seed:       7,
	}
}

func TestSimValidatesConfig(t *testing.T) {
	valid := testbedConfig(0.5)

	cases := []struct {
		name   string
		mutate func(*SimConfig)
		want   error
	}{
		{"missing source", func(c *SimConfig) { c.Source = nil }, ErrNoSourceFunc},
		{"missing sampler", func(c *SimConfig) { c.NewSampler = nil }, ErrNoSampler},
		{"missing cost", func(c *SimConfig) { c.Cost = nil }, ErrNoCost},
		{"zero duration", func(c *SimConfig) { c.Duration = 0 }, ErrNoDuration},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			if _, err := RunSim(cfg); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("invalid spec", func(t *testing.T) {
		cfg := valid
		cfg.Spec.Sources = 0
		if _, err := RunSim(cfg); err == nil {
			t.Fatal("invalid spec accepted")
		}
	})
	t.Run("failure out of range", func(t *testing.T) {
		cfg := valid
		cfg.Failures = []Failure{{Layer: 9, Node: 0}}
		if _, err := RunSim(cfg); err == nil {
			t.Fatal("out-of-range failure accepted")
		}
	})
}

// TestSimCountInvariantEndToEnd is the headline correctness property: after
// the pipeline drains, the root's estimated item count equals the number of
// generated items exactly (Eq. 8 composed over three hops and all windows).
func TestSimCountInvariantEndToEnd(t *testing.T) {
	for _, fraction := range []float64{0.1, 0.5, 1.0} {
		res, err := RunSim(testbedConfig(fraction))
		if err != nil {
			t.Fatalf("RunSim(f=%g): %v", fraction, err)
		}
		if res.Generated == 0 {
			t.Fatal("no items generated")
		}
		gotCount := res.TotalEstimate(query.Count)
		if rel := math.Abs(gotCount-float64(res.Generated)) / float64(res.Generated); rel > 1e-9 {
			t.Errorf("f=%g: estimated count %.1f vs generated %d (rel %.2e) — Eq. 8 violated",
				fraction, gotCount, res.Generated, rel)
		}
	}
}

func TestSimAccuracyImprovesWithFraction(t *testing.T) {
	loss := func(fraction float64) float64 {
		res, err := RunSim(testbedConfig(fraction))
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		return res.AccuracyLoss(query.Sum)
	}
	low, high := loss(0.05), loss(0.9)
	if high > low {
		t.Fatalf("loss at 90%% (%g) exceeds loss at 5%% (%g)", high, low)
	}
	if low > 0.05 {
		t.Fatalf("loss at 5%% fraction = %g, want < 5%% for the Gaussian mix", low)
	}
}

func TestSimNativeIsExact(t *testing.T) {
	cfg := testbedConfig(1)
	cfg.NewSampler = NativeFactory()
	cfg.Cost = FractionBudget{Fraction: 1}
	cfg.Streaming = true
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if got := res.AccuracyLoss(query.Sum); got > 1e-9 {
		t.Fatalf("native execution accuracy loss = %g, want 0", got)
	}
	if res.RootObserved != res.Generated {
		t.Fatalf("native root observed %d of %d items", res.RootObserved, res.Generated)
	}
}

func TestSimSRSUnbiasedButNoisier(t *testing.T) {
	whs, err := RunSim(testbedConfig(0.1))
	if err != nil {
		t.Fatalf("WHS run: %v", err)
	}
	cfg := testbedConfig(0.1)
	cfg.NewSampler = SRSFactory(0.1)
	cfg.Streaming = true
	srs, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("SRS run: %v", err)
	}
	// Both should land near the truth; WHS at least as close in this
	// deterministic configuration.
	if srs.AccuracyLoss(query.Sum) > 0.5 {
		t.Fatalf("SRS loss = %g, implausibly bad for 10%% on balanced Gaussian", srs.AccuracyLoss(query.Sum))
	}
	if whs.AccuracyLoss(query.Sum) > srs.AccuracyLoss(query.Sum)+0.01 {
		t.Fatalf("WHS loss %g not better than SRS loss %g",
			whs.AccuracyLoss(query.Sum), srs.AccuracyLoss(query.Sum))
	}
}

func TestSimBandwidthScalesWithFraction(t *testing.T) {
	full, err := RunSim(testbedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := RunSim(testbedConfig(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Layer 0 (sources → edge1) is unsampled: identical bytes.
	if full.LayerBytes[0] != tenth.LayerBytes[0] {
		t.Fatalf("source-layer bytes differ: %d vs %d", full.LayerBytes[0], tenth.LayerBytes[0])
	}
	// Layers 1+ carry ~10% of the native bytes at fraction 0.1.
	ratio := float64(tenth.LayerBytes[1]+tenth.LayerBytes[2]) / float64(full.LayerBytes[1]+full.LayerBytes[2])
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("sampled-layer byte ratio = %.3f, want ~0.1", ratio)
	}
}

func TestSimLatencyReflectsRootSaturation(t *testing.T) {
	fast := testbedConfig(1)
	fast.NewSampler = NativeFactory()
	fast.Streaming = true
	fast.RootServiceRate = 1e9 // effectively unloaded
	unloaded, err := RunSim(fast)
	if err != nil {
		t.Fatal(err)
	}

	slow := fast
	slow.RootServiceRate = 4000 // offered 8000/s → 2× overload
	saturated, err := RunSim(slow)
	if err != nil {
		t.Fatal(err)
	}
	if saturated.Latency.Mean() < 2*unloaded.Latency.Mean() {
		t.Fatalf("saturated mean latency %v not ≫ unloaded %v",
			saturated.Latency.Mean(), unloaded.Latency.Mean())
	}
}

func TestSimWindowedLatencyGrowsWithWindow(t *testing.T) {
	mean := func(window time.Duration) time.Duration {
		cfg := testbedConfig(0.1)
		cfg.Spec.Window = window
		cfg.Duration = 10 * window
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	small, large := mean(500*time.Millisecond), mean(4*time.Second)
	if large <= small {
		t.Fatalf("latency did not grow with window: %v (0.5s) vs %v (4s)", small, large)
	}
}

func TestSimStreamingSRSLatencyFlatAcrossWindows(t *testing.T) {
	mean := func(window time.Duration) time.Duration {
		cfg := testbedConfig(0.1)
		cfg.NewSampler = SRSFactory(0.1)
		cfg.Streaming = true
		cfg.Spec.Window = window
		cfg.Duration = 10 * window
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	small, large := mean(500*time.Millisecond), mean(4*time.Second)
	// SRS latency is dominated by the root window only; it may grow with
	// the root window but far less than proportionally… the paper's claim
	// is that it stays (nearly) flat because edges do not wait. Allow the
	// root-window component: large/small must stay well under the 8×
	// window growth.
	if float64(large) > 4*float64(small) {
		t.Fatalf("streaming SRS latency grew %vx with window (%v → %v)",
			float64(large)/float64(small), small, large)
	}
	// Nor may it fall: no item can reach the root before it was sent.
	if 2*large < small {
		t.Fatalf("streaming SRS latency fell %vx with window (%v → %v)",
			float64(small)/float64(large), small, large)
	}
}

// TestSimLatencyFloor: no item reaches the root sooner than the links can
// carry it — Testbed's three hops take Σ LinkRTT/2 = 10+20+40 ms one way —
// whatever the window, so a source never ships an item before its
// timestamp. Streaming native forwards at once, so only the links remain.
func TestSimLatencyFloor(t *testing.T) {
	var floor time.Duration
	for _, ls := range topology.Testbed().Layers {
		floor += ls.LinkRTT / 2
	}
	for _, window := range []time.Duration{500 * time.Millisecond, 4 * time.Second} {
		cfg := testbedConfig(1)
		cfg.NewSampler = NativeFactory()
		cfg.Cost = FractionBudget{Fraction: 1}
		cfg.Streaming = true
		cfg.Spec.Window = window
		cfg.Duration = 10 * window
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Latency.Min(); got < floor {
			t.Fatalf("window %v: latency min %v below the %v the links take", window, got, floor)
		}
	}
}

func TestSimNodeFailureDegradesGracefully(t *testing.T) {
	cfg := testbedConfig(0.5)
	cfg.Failures = []Failure{{Layer: 0, Node: 0, At: time.Second, For: 2 * time.Second}}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim with failure: %v", err)
	}
	// The crashed edge node drops its windows: the root must see fewer
	// items than generated, but the run completes and the remaining
	// estimate stays sane.
	gotCount := res.TotalEstimate(query.Count)
	if gotCount >= float64(res.Generated) {
		t.Fatalf("failure had no effect: estimated %g of %d", gotCount, res.Generated)
	}
	if gotCount < float64(res.Generated)/2 {
		t.Fatalf("single node failure lost too much: %g of %d", gotCount, res.Generated)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no windows produced")
	}
}

func TestSimSingleNodeTopology(t *testing.T) {
	cfg := testbedConfig(0.3)
	cfg.Spec = topology.SingleNode(4)
	cfg.Spec.Window = time.Second
	cfg.Source = func(i int) workload.Source {
		return workload.GaussianMicro(uint64(i)+10, 500)
	}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim single-node: %v", err)
	}
	gotCount := res.TotalEstimate(query.Count)
	if rel := math.Abs(gotCount-float64(res.Generated)) / float64(res.Generated); rel > 1e-9 {
		t.Fatalf("single-node Eq. 8 violated: %g vs %d", gotCount, res.Generated)
	}
}

func TestSimParallelWHSFactory(t *testing.T) {
	cfg := testbedConfig(0.2)
	cfg.NewSampler = ParallelWHSFactory(4)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim parallel: %v", err)
	}
	gotCount := res.TotalEstimate(query.Count)
	if rel := math.Abs(gotCount-float64(res.Generated)) / float64(res.Generated); rel > 1e-9 {
		t.Fatalf("parallel WHS Eq. 8 violated: %g vs %d", gotCount, res.Generated)
	}
}

func TestSimOnWindowCallback(t *testing.T) {
	cfg := testbedConfig(0.5)
	calls := 0
	cfg.OnWindow = func(WindowResult) { calls++ }
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(res.Windows) {
		t.Fatalf("OnWindow fired %d times for %d windows", calls, len(res.Windows))
	}
	if calls == 0 {
		t.Fatal("no windows observed")
	}
}

// TestSimDeterministicAcrossRuns: a seeded run is reproducible as a whole —
// every window's estimates, each layer's bytes and messages, the late drops
// and the latency distribution — not only in its totals, where broker or
// scheduling order leaking into the results could cancel out. The impaired
// configuration puts jitter, loss and a failure on the links too.
func TestSimDeterministicAcrossRuns(t *testing.T) {
	impaired := testbedConfig(0.25)
	impaired.LinkJitter = 30 * time.Millisecond
	impaired.LinkLoss = 0.02
	impaired.AllowedLateness = 200 * time.Millisecond
	impaired.Failures = []Failure{{Layer: 1, Node: 1, At: time.Second, For: time.Second}}
	for name, cfg := range map[string]SimConfig{"clean": testbedConfig(0.25), "impaired": impaired} {
		t.Run(name, func(t *testing.T) {
			a, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Generated != b.Generated {
				t.Fatalf("generated differ: %d vs %d", a.Generated, b.Generated)
			}
			if len(a.Windows) != len(b.Windows) {
				t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
			}
			for i := range a.Windows {
				wa, wb := a.Windows[i], b.Windows[i]
				if !wa.Start.Equal(wb.Start) || wa.SampleSize != wb.SampleSize || wa.EstimatedInput != wb.EstimatedInput {
					t.Fatalf("window %d differs: %v/%d/%g vs %v/%d/%g", i,
						wa.Start, wa.SampleSize, wa.EstimatedInput, wb.Start, wb.SampleSize, wb.EstimatedInput)
				}
				for _, kind := range cfg.Queries {
					if ea, eb := wa.Result(kind).Estimate, wb.Result(kind).Estimate; ea != eb {
						t.Fatalf("window %d %v estimate differs: %+v vs %+v", i, kind, ea, eb)
					}
				}
			}
			for l := range a.LayerBytes {
				if a.LayerBytes[l] != b.LayerBytes[l] || a.LayerMessages[l] != b.LayerMessages[l] {
					t.Fatalf("layer %d traffic differs: %d B/%d msgs vs %d B/%d msgs",
						l, a.LayerBytes[l], a.LayerMessages[l], b.LayerBytes[l], b.LayerMessages[l])
				}
			}
			if a.LateDropped != b.LateDropped || a.LateDroppedInput != b.LateDroppedInput {
				t.Fatalf("late drops differ: %d (%g) vs %d (%g)", a.LateDropped, a.LateDroppedInput, b.LateDropped, b.LateDroppedInput)
			}
			if a.Latency.Count() != b.Latency.Count() || a.Latency.Mean() != b.Latency.Mean() {
				t.Fatalf("latency differs: %d items, mean %v vs %d items, mean %v",
					a.Latency.Count(), a.Latency.Mean(), b.Latency.Count(), b.Latency.Mean())
			}
		})
	}
}

// TestSimStartsNoGoroutine: RunSim drives the engine on the caller's
// goroutine alone. No member pump, sweeper or context watcher starts, so
// every window closes with the goroutine count RunSim began with — for the
// windowed tree under feedback (control consumers in every member) and for
// the streaming one behind a saturated root.
func TestSimStartsNoGoroutine(t *testing.T) {
	adaptive := testbedConfig(0.25)
	adaptive.Cost = nil
	adaptive.Feedback = NewFeedbackController(0.25, 0.01)
	streaming := testbedConfig(1)
	streaming.NewSampler = NativeFactory()
	streaming.Streaming = true
	streaming.RootServiceRate = 4000
	for name, cfg := range map[string]SimConfig{"adaptive": adaptive, "streaming": streaming} {
		t.Run(name, func(t *testing.T) {
			cfg.Duration = 2 * time.Second
			before := settledGoroutines()
			windows := 0
			cfg.OnWindow = func(WindowResult) {
				windows++
				if n := runtime.NumGoroutine(); n != before {
					buf := make([]byte, 1<<16)
					t.Fatalf("window %d: %d goroutines, %d before RunSim\n%s", windows, n, before, buf[:runtime.Stack(buf, true)])
				}
			}
			if _, err := RunSim(cfg); err != nil {
				t.Fatal(err)
			}
			if windows == 0 {
				t.Fatal("no window closed")
			}
		})
	}
}

// settledGoroutines returns the goroutine count once earlier tests' exiting
// goroutines have gone: two reads 10 ms apart that agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

func TestSimErrorBoundCoversTruth(t *testing.T) {
	// With the 95% bound and ~25 windows, the per-window interval should
	// cover the per-window truth most of the time. We check the run total:
	// combined bound must cover the true total.
	res, err := RunSim(testbedConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	var est, varSum float64
	for _, w := range res.Windows {
		r := w.Result(query.Sum)
		est += r.Estimate.Value
		varSum += r.Estimate.Variance
	}
	bound := 3 * math.Sqrt(varSum) // 99.7%
	truth := res.TotalTruth()
	if math.Abs(est-truth) > bound {
		t.Fatalf("run total %0.f outside truth %0.f ± %0.f", est, truth, bound)
	}
}

// TestSimLongTailedStreams checks the §III-A claim that the algorithm
// handles long-tailed (bursty) streams as well as uniform-speed ones: the
// same sub-streams arriving in staggered bursts must estimate as accurately
// as their uniform twin at the same long-run rates.
func TestSimLongTailedStreams(t *testing.T) {
	run := func(bursty bool) float64 {
		cfg := testbedConfig(0.2)
		cfg.Source = func(i int) workload.Source {
			seed := uint64(i)*1000 + 1
			if bursty {
				return workload.LongTailed(seed, 250)
			}
			return workload.GaussianMicro(seed, 250)
		}
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Invariant must hold regardless of burstiness.
		gotCount := res.TotalEstimate(query.Count)
		if rel := math.Abs(gotCount-float64(res.Generated)) / float64(res.Generated); rel > 1e-9 {
			t.Fatalf("bursty=%v: Eq. 8 violated (%g vs %d)", bursty, gotCount, res.Generated)
		}
		return res.AccuracyLoss(query.Sum)
	}
	uniform, longTailed := run(false), run(true)
	if longTailed > 10*uniform+0.01 {
		t.Fatalf("long-tailed loss %g far above uniform %g", longTailed, uniform)
	}
}
