package core

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Cross-mode equivalence suite: the simulated and the live runner execute
// the same compiled plan on the same engine, so the Eq. 8 guarantees must
// hold in both modes at every {Partitions, RootShards, LayerShards}
// combination, because consumer-group sharding only partitions the input
// that weight compounding already makes order- and split-insensitive.
//
// Two invariants are asserted per run:
//
//   - count exactness: the total estimated input count equals the number of
//     items actually generated (Eq. 8 composed across every layer), and
//   - total-weight conservation: Σ w·|items| over the root's Θ — which is
//     exactly what EstimatedInput totals — neither inflates nor deflates
//     through any sharded hop.

const crossModeTolerance = 1e-9

func assertCountInvariant(t *testing.T, label string, estimated, produced float64) {
	t.Helper()
	if produced == 0 {
		t.Fatalf("%s: produced nothing", label)
	}
	if rel := math.Abs(estimated-produced) / produced; rel > crossModeTolerance {
		t.Fatalf("%s: estimated input %.2f vs produced %.0f (rel %.2e)", label, estimated, produced, rel)
	}
}

func TestCrossModeEquivalence(t *testing.T) {
	spec := topology.Testbed()
	const seed = 21

	// Both modes run the same config — spec, sampler, cost, seed — swept
	// across the parallelism knobs, including the degenerate all-ones
	// deployment.
	combos := []struct {
		name        string
		partitions  int
		rootShards  int
		layerShards []int
	}{
		{"all-ones", 1, 1, nil},
		{"partitioned-unsharded", 4, 1, nil},
		{"root-sharded", 4, 4, nil},
		{"layer-sharded", 4, 2, []int{2, 2}},
		{"fully-sharded-uneven", 8, 4, []int{4, 3}},
	}
	config := func(partitions, rootShards int, layerShards []int) LiveConfig {
		return LiveConfig{
			Spec:        spec,
			Source:      microSource(seed, 1000),
			NewSampler:  WHSFactory(),
			Cost:        EffectiveFractionBudget{Fraction: 0.25},
			Items:       12000,
			Window:      30 * time.Millisecond,
			Queries:     []query.Kind{query.Sum, query.Count},
			Partitions:  partitions,
			RootShards:  rootShards,
			LayerShards: layerShards,
			Seed:        seed,
		}
	}
	simulate := func(t *testing.T, cfg LiveConfig) *SimResult {
		t.Helper()
		res, err := RunSim(SimConfig{LiveConfig: cfg, Duration: 2 * time.Second})
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		assertCountInvariant(t, "sim", res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
		return res
	}
	census := func(cfg LiveConfig) LiveConfig {
		cfg.Cost = EffectiveFractionBudget{Fraction: 1}
		return cfg
	}
	// The all-ones census is the traffic reference: sharding splits what
	// the links carry across more members and partitions, never adds to it
	// beyond the per-partition beats.
	ref := simulate(t, census(config(1, 1, nil)))

	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			cfg := config(combo.partitions, combo.rootShards, combo.layerShards)
			res, err := RunLive(cfg)
			if err != nil {
				t.Fatalf("RunLive: %v", err)
			}
			if res.Produced != 12000 {
				t.Fatalf("produced %d, want 12000", res.Produced)
			}
			assertCountInvariant(t, "live", res.EstimateCount, float64(res.Produced))
			// The modes agree on accuracy too: both estimate their own
			// exact truth within the fraction's expected loss.
			if loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum; loss > 0.1 {
				t.Fatalf("live sum loss %.3f at fraction 0.25", loss)
			}

			sim := simulate(t, cfg)
			if loss := sim.AccuracyLoss(query.Sum); loss > 0.1 {
				t.Fatalf("sim sum loss %.3f at fraction 0.25", loss)
			}
			// At census every member forwards everything: COUNT and SUM
			// are exact, and each layer's links carry what the all-ones
			// tree's do.
			full := simulate(t, census(cfg))
			assertCountInvariant(t, "sim census count", full.TotalEstimate(query.Count), float64(full.Produced))
			if loss := full.AccuracyLoss(query.Sum); loss > crossModeTolerance {
				t.Fatalf("sim census sum loss %.2e", loss)
			}
			for l, b := range full.LayerBytes {
				if rel := math.Abs(float64(b-ref.LayerBytes[l])) / float64(ref.LayerBytes[l]); rel > 0.02 {
					t.Fatalf("layer %d carried %d B, all-ones census %d B (rel %.3f)", l, b, ref.LayerBytes[l], rel)
				}
			}
		})
	}
}

// TestCrossModeAdaptiveEquivalence extends the suite to adaptive runs: with
// identical controller gains and comparable per-window volumes (sim windows
// are 1 virtual second at 4000 items; live windows are 50 ms paced to 4000
// items), the sim and live feedback loops must settle on the same fraction
// plateau, and the count invariant — which weight compounding guarantees at
// *any* fraction — must stay exact while the fraction moves, at every shard
// combo.
func TestCrossModeAdaptiveEquivalence(t *testing.T) {
	const (
		seed    = 21
		initial = 0.05
		target  = 0.02
		gain    = 1.5
	)

	ctl := NewFeedbackController(initial, target, WithGain(gain))
	sim, err := RunSim(SimConfig{
		LiveConfig: LiveConfig{
			Spec:       topology.Testbed(),
			Source:     microSource(seed, 125), // 8 sources × 4 × 125/s = 4000 per 1 s window
			NewSampler: WHSFactory(),
			Queries:    []query.Kind{query.Sum, query.Count},
			Seed:       seed,
			Feedback:   ctl,
		},
		Duration: 14 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if len(sim.Fractions) != len(sim.Windows) || len(sim.Fractions) == 0 {
		t.Fatalf("sim recorded %d fractions over %d windows", len(sim.Fractions), len(sim.Windows))
	}
	var simEstimated float64
	for _, w := range sim.Windows {
		simEstimated += w.EstimatedInput
	}
	assertCountInvariant(t, "sim", simEstimated, float64(sim.Produced))
	simFinal := sim.Fractions[len(sim.Fractions)-1]

	combos := []struct {
		name        string
		partitions  int
		rootShards  int
		layerShards []int
	}{
		{"all-ones", 1, 1, nil},
		{"fully-sharded", 4, 2, []int{2, 2}},
	}
	if testing.Short() {
		combos = combos[1:] // keep the control plane under the race detector
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			ctl := NewFeedbackController(initial, target, WithGain(gain))
			res, err := RunLive(LiveConfig{
				Spec:        topology.Testbed(),
				Source:      microSource(seed, 1000),
				NewSampler:  WHSFactory(),
				Items:       48000,
				Window:      50 * time.Millisecond,
				Queries:     []query.Kind{query.Sum, query.Count},
				Partitions:  combo.partitions,
				RootShards:  combo.rootShards,
				LayerShards: combo.layerShards,
				Seed:        seed,
				Feedback:    ctl,
				SourceRate:  10000, // 8 × 10000/s × 50 ms = 4000 per window
			})
			if err != nil {
				t.Fatalf("RunLive: %v", err)
			}
			if res.Produced != 48000 {
				t.Fatalf("produced %d, want 48000", res.Produced)
			}
			// The invariant the whole design hangs on: exact counts while
			// the fraction moves under control-plane adaptation.
			assertCountInvariant(t, "live", res.EstimateCount, float64(res.Produced))

			if len(res.Fractions) != len(res.Windows) || len(res.Fractions) < 6 {
				t.Fatalf("recorded %d fractions over %d windows, want one per window and enough to converge", len(res.Fractions), len(res.Windows))
			}
			for i, f := range res.Fractions {
				if f < 0.01 || f > 1 {
					t.Fatalf("window %d fraction %g outside controller bounds", i, f)
				}
			}
			// Trajectory equivalence: both loops settle, and the live
			// plateau is within a couple of MIMD steps of the sim plateau
			// (wall-clock windows are noisier than virtual-time ones, so
			// allow gain³ while typical runs agree within one step).
			last := res.Fractions[len(res.Fractions)-1]
			for _, f := range res.Fractions[len(res.Fractions)-4:] {
				if f > last*gain+1e-12 || f < last/gain-1e-12 {
					t.Fatalf("trajectory still moving at the tail: %v", res.Fractions)
				}
			}
			slack := gain * gain * gain
			if ratio := last / simFinal; ratio > slack || ratio < 1/slack {
				t.Fatalf("live plateau %.4f vs sim plateau %.4f (ratio %.2f beyond gain³)", last, simFinal, ratio)
			}

			// Runtime observability: the adaptive loop is driven by these,
			// so they must be live on every run.
			if res.Latency.Count() == 0 || res.Latency.Quantile(0.5) <= 0 {
				t.Fatalf("latency histogram empty: %v", res.Latency)
			}
			if res.Bandwidth.Total() == 0 {
				t.Fatal("bandwidth account empty")
			}
			if got := res.Bandwidth.Link("control"); got == 0 {
				t.Fatal("no control-plane bytes accounted")
			}
			if len(res.Nodes) == 0 {
				t.Fatal("no node telemetry")
			}
			var rootThroughput float64
			for id, tel := range res.Nodes {
				if tel.Observed > 0 && tel.Throughput <= 0 {
					t.Fatalf("node %s observed %d items at zero throughput", id, tel.Observed)
				}
				if id == "root-0" {
					rootThroughput = tel.Throughput
				}
			}
			if rootThroughput <= 0 {
				t.Fatal("root-0 telemetry missing or idle")
			}
		})
	}
}

// TestShardInvarianceProperty drives randomized {seed, partitions, shards}
// deployments and checks that sharding is estimate-invariant: the merged
// estimated input count of a sharded run equals the single-shard run's
// (same seed, same items) within exactness tolerance.
func TestShardInvarianceProperty(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	rng := xrand.New(0xC0FFEE)
	spec := topology.Testbed()
	for trial := 0; trial < trials; trial++ {
		seed := rng.Uint64()
		partitions := 1 + int(rng.Uint64()%8)
		rootShards := 1 + int(rng.Uint64()%uint64(partitions))
		layerShards := make([]int, spec.RootLayer())
		for l := range layerShards {
			layerShards[l] = 1 + int(rng.Uint64()%uint64(partitions))
		}
		items := int64(6000 + rng.Uint64()%4000)

		run := func(partitions, rootShards int, layerShards []int) *LiveResult {
			res, err := RunLive(LiveConfig{
				Spec:        spec,
				Source:      microSource(seed, 1000),
				NewSampler:  WHSFactory(),
				Cost:        EffectiveFractionBudget{Fraction: 0.3},
				Items:       items,
				Window:      25 * time.Millisecond,
				Queries:     []query.Kind{query.Sum, query.Count},
				Partitions:  partitions,
				RootShards:  rootShards,
				LayerShards: layerShards,
				Seed:        seed,
			})
			if err != nil {
				t.Fatalf("trial %d: RunLive(p=%d r=%d l=%v): %v", trial, partitions, rootShards, layerShards, err)
			}
			return res
		}
		baseline := run(1, 1, nil)
		sharded := run(partitions, rootShards, layerShards)

		if baseline.Produced != items || sharded.Produced != items {
			t.Fatalf("trial %d: produced %d/%d, want %d", trial, baseline.Produced, sharded.Produced, items)
		}
		assertCountInvariant(t, "baseline", baseline.EstimateCount, float64(items))
		assertCountInvariant(t, "sharded", sharded.EstimateCount, float64(items))
		if rel := math.Abs(baseline.EstimateCount-sharded.EstimateCount) / baseline.EstimateCount; rel > crossModeTolerance {
			t.Fatalf("trial %d (p=%d r=%d l=%v): merged estimate %.2f vs single-shard %.2f",
				trial, partitions, rootShards, layerShards, sharded.EstimateCount, baseline.EstimateCount)
		}
	}
}

// TestShardBudgetSplitProperty checks, for randomized caps and shard
// counts, that dividing an absolute FixedBudget across a node's group
// members never exceeds the configured cap in total — and reaches it
// exactly whenever the input is large enough.
func TestShardBudgetSplitProperty(t *testing.T) {
	rng := xrand.New(0xBADCAB)
	for trial := 0; trial < 20; trial++ {
		shards := 1 + int(rng.Uint64()%6)
		capSize := 1 + int(rng.Uint64()%300)
		cfg := testPlanConfig()
		cfg.Cost = FixedBudget{Size: capSize}
		cfg.Partitions = shards
		cfg.RootShards = shards
		layerShards := make([]int, cfg.Spec.RootLayer())
		for l := range layerShards {
			layerShards[l] = shards
		}
		cfg.LayerShards = layerShards
		plan, err := CompilePlan(cfg)
		if err != nil {
			t.Fatalf("trial %d: CompilePlan: %v", trial, err)
		}
		// Every node of every layer: feed each member more than the cap
		// and total what the group keeps.
		for l, layer := range plan.Layers {
			for _, desc := range layer {
				if desc.Shards != shards {
					t.Fatalf("trial %d: node (%d,%d) compiled with %d shards, want %d", trial, l, desc.Index, desc.Shards, shards)
				}
				total := 0
				for shard := 0; shard < desc.Shards; shard++ {
					n := plan.NewNodeShard(desc, shard)
					n.IngestItems(mkItems("a", make([]float64, capSize+1)...))
					for _, b := range n.CloseInterval() {
						total += len(b.Items)
					}
				}
				if total > capSize {
					t.Fatalf("trial %d: node %s group kept %d items over cap %d", trial, desc.ID, total, capSize)
				}
				if capSize >= desc.Shards && total != capSize {
					t.Fatalf("trial %d: node %s group kept %d items, want the full cap %d", trial, desc.ID, total, capSize)
				}
			}
		}
	}
}
