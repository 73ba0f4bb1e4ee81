package bench

import (
	"fmt"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
)

// AblationHierarchy contrasts hierarchical sampling (every node samples)
// with sampling only at the root — the design choice §II-A motivates:
// root-only sampling wastes all bandwidth and compute spent shipping items
// that are then discarded. Accuracy is statistically equivalent; the
// bandwidth column is the argument.
func AblationHierarchy(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "A1",
		Title:  "Ablation: hierarchical vs root-only sampling (10% fraction)",
		XLabel: "variant",
		YLabel: "see columns",
		Series: []Series{
			{Label: "accuracy loss (%)"},
			{Label: "sampled-segment MB"},
		},
		Notes: "variant 1 = hierarchical (ApproxIoT), variant 2 = root-only",
	}
	src := gaussianMicroSources(scale.RatePerSubstream, topology.Testbed().Sources)

	rootOnly := func(layer, node int, seed uint64) sample.Sampler {
		if layer == topology.Testbed().RootLayer() {
			return core.WHSFactory()(layer, node, seed)
		}
		return sample.Passthrough{}
	}

	for i, factory := range []core.SamplerFactory{core.WHSFactory(), rootOnly} {
		var lossSum, mb float64
		for r := 0; r < scale.Reps; r++ {
			seed := scale.seedFor(r)
			res, err := simFor(sysWHS, 0.1, src(seed), scale, func(c *core.SimConfig) {
				c.Seed = seed
				c.NewSampler = factory
			})
			if err != nil {
				return fig, fmt.Errorf("bench: hierarchy ablation: %w", err)
			}
			lossSum += res.AccuracyLoss(query.Sum) * 100
			mb += float64(sampledSegmentBytes(res.LayerBytes)) / 1e6
		}
		x := float64(i + 1)
		fig.Series[0].Point(x, lossSum/float64(scale.Reps))
		fig.Series[1].Point(x, mb/float64(scale.Reps))
	}
	return fig, nil
}

// AblationAllocator compares the budget-split policies on the most
// unbalanced rate setting (Setting1, 50k:25k:12.5k:625): WaterFill keeps
// the full budget in play, EqualSplit strands the share of small
// sub-streams, Proportional starves them.
func AblationAllocator(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "A2",
		Title:  "Ablation: reservoir allocation policy (Setting1, 60% fraction)",
		XLabel: "policy",
		YLabel: "see columns",
		Series: []Series{
			{Label: "accuracy loss (%)"},
			{Label: "effective fraction (%)"},
		},
		Notes: "policy 1 = WaterFill, 2 = EqualSplit, 3 = Proportional, 4 = Neyman",
	}
	setting := workload.Settings()[0]
	src := settingSources(setting, true, scale, topology.Testbed().Sources)

	allocators := []sample.Allocator{sample.WaterFill{}, sample.EqualSplit{}, sample.Proportional{}, sample.Neyman{}}
	for i, alloc := range allocators {
		alloc := alloc
		var lossSum, fracSum float64
		for r := 0; r < scale.Reps; r++ {
			seed := scale.seedFor(r)
			res, err := simFor(sysWHS, 0.6, src(seed), scale, func(c *core.SimConfig) {
				c.Seed = seed
				c.NewSampler = core.WHSFactory(sample.WithAllocator(alloc))
			})
			if err != nil {
				return fig, fmt.Errorf("bench: allocator ablation: %w", err)
			}
			lossSum += res.AccuracyLoss(query.Sum) * 100
			fracSum += 100 * float64(res.RootProcessed) / float64(res.Produced)
		}
		x := float64(i + 1)
		fig.Series[0].Point(x, lossSum/float64(scale.Reps))
		fig.Series[1].Point(x, fracSum/float64(scale.Reps))
	}
	return fig, nil
}

// AblationParallelWorkers sweeps the §III-E worker count: splitting each
// sub-stream's reservoir across w workers removes coordination but each
// worker's smaller reservoir slightly increases estimator variance.
func AblationParallelWorkers(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "A3",
		Title:  "Ablation: §III-E parallel sampling workers (10% fraction)",
		XLabel: "workers",
		YLabel: "accuracy loss (%)",
		Series: []Series{{Label: "ApproxIoT-parallel"}},
	}
	src := gaussianMicroSources(scale.RatePerSubstream, topology.Testbed().Sources)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		var lossSum float64
		for r := 0; r < scale.Reps; r++ {
			seed := scale.seedFor(r)
			res, err := simFor(sysWHS, 0.1, src(seed), scale, func(c *core.SimConfig) {
				c.Seed = seed
				c.NewSampler = core.ParallelWHSFactory(w)
			})
			if err != nil {
				return fig, fmt.Errorf("bench: worker ablation: %w", err)
			}
			lossSum += res.AccuracyLoss(query.Sum) * 100
		}
		fig.Series[0].Point(float64(w), lossSum/float64(scale.Reps))
	}
	return fig, nil
}

// AblationAlignment probes robustness to the sources' send granularity: a
// source ships Window/chunks of items per record, so the more chunks per
// window, the smaller and more numerous the weight-1 pairs every edge window
// gathers. Event windows cut records at window boundaries by timestamp, so no
// batch straddles a window any more; what varies is only how each window's Ψ
// is split into pairs. The estimate must stay accurate regardless — Eq. 8
// holds per pair, however pairs are split.
func AblationAlignment(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "A4",
		Title:  "Ablation: source send granularity (10% fraction)",
		XLabel: "chunks/window",
		YLabel: "accuracy loss (%)",
		Series: []Series{{Label: "ApproxIoT"}},
		Notes:  "event windows split records at window boundaries: only the pair count per window varies",
	}
	src := gaussianMicroSources(scale.RatePerSubstream, topology.Testbed().Sources)
	for _, chunks := range []int{1, 2, 8, 32} {
		chunks := chunks
		var lossSum float64
		for r := 0; r < scale.Reps; r++ {
			seed := scale.seedFor(r)
			res, err := simFor(sysWHS, 0.1, src(seed), scale, func(c *core.SimConfig) {
				c.Seed = seed
				c.ChunksPerWindow = chunks
			})
			if err != nil {
				return fig, fmt.Errorf("bench: alignment ablation: %w", err)
			}
			lossSum += res.AccuracyLoss(query.Sum) * 100
		}
		fig.Series[0].Point(float64(chunks), lossSum/float64(scale.Reps))
	}
	return fig, nil
}
