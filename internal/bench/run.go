package bench

import (
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
)

// system identifies one evaluated approach.
type system int

const (
	sysWHS system = iota + 1
	sysSRS
	sysNative
)

func (s system) label() string {
	switch s {
	case sysWHS:
		return "ApproxIoT"
	case sysSRS:
		return "SRS"
	default:
		return "Native"
	}
}

// sourceFunc builds per-source generators for a workload family. The
// returned function must create a fresh generator per source index so each
// source has decorrelated randomness.
type sourceFunc func(seed uint64) func(i int) workload.Source

// gaussianMicroSources splits the four Gaussian sub-streams evenly across
// the 8 source nodes (total per-sub-stream rate = ratePerSubstream).
func gaussianMicroSources(ratePerSubstream float64, sources int) sourceFunc {
	return func(seed uint64) func(i int) workload.Source {
		return func(i int) workload.Source {
			return workload.GaussianMicro(seed+uint64(i)*211, ratePerSubstream/float64(sources))
		}
	}
}

// poissonMicroSources is the Poisson analogue.
func poissonMicroSources(ratePerSubstream float64, sources int) sourceFunc {
	return func(seed uint64) func(i int) workload.Source {
		return func(i int) workload.Source {
			return workload.PoissonMicro(seed+uint64(i)*211, ratePerSubstream/float64(sources))
		}
	}
}

// simFor runs one simulated experiment for a system at a fraction.
func simFor(sys system, fraction float64, src func(i int) workload.Source, scale Scale, mutate func(*core.SimConfig)) (*core.SimResult, error) {
	cfg := core.SimConfig{
		LiveConfig: core.LiveConfig{
			Spec:    topology.Testbed(),
			Source:  src,
			Cost:    core.EffectiveFractionBudget{Fraction: fraction},
			Queries: []query.Kind{query.Sum, query.Count},
			Seed:    scale.Seed,
		},
		Duration: scale.SimDuration,
	}
	switch sys {
	case sysWHS:
		cfg.NewSampler = core.WHSFactory()
	case sysSRS:
		cfg.NewSampler = core.SRSFactory(fraction)
		cfg.Streaming = true
	case sysNative:
		cfg.NewSampler = core.NativeFactory()
		cfg.Cost = core.FractionBudget{Fraction: 1}
		cfg.Streaming = true
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.RunSim(cfg)
}

// meanAccuracyLossPct averages the run-total SUM accuracy loss (in percent)
// over scale.Reps seeded repetitions.
func meanAccuracyLossPct(sys system, fraction float64, src sourceFunc, scale Scale) (float64, error) {
	var total float64
	for r := 0; r < scale.Reps; r++ {
		seed := scale.seedFor(r)
		res, err := simFor(sys, fraction, src(seed), scale, func(c *core.SimConfig) { c.Seed = seed })
		if err != nil {
			return 0, fmt.Errorf("bench: %s at %.0f%%: %w", sys.label(), fraction*100, err)
		}
		total += res.AccuracyLoss(query.Sum) * 100
	}
	return total / float64(scale.Reps), nil
}

// accuracyFigure sweeps fractions for ApproxIoT and SRS over one workload.
func accuracyFigure(id, title string, src sourceFunc, scale Scale) (Figure, error) {
	fig := Figure{
		ID:     id,
		Title:  title,
		XLabel: "fraction%",
		YLabel: "accuracy loss (%)",
		Series: []Series{{Label: "ApproxIoT"}, {Label: "SRS"}},
	}
	for _, pct := range fractionsPct {
		f := pct / 100
		whs, err := meanAccuracyLossPct(sysWHS, f, src, scale)
		if err != nil {
			return fig, err
		}
		srs, err := meanAccuracyLossPct(sysSRS, f, src, scale)
		if err != nil {
			return fig, err
		}
		fig.Series[0].Point(pct, whs)
		fig.Series[1].Point(pct, srs)
	}
	return fig, nil
}

// liveFor runs one live experiment for a system at a fraction.
func liveFor(sys system, fraction float64, src func(i int) workload.Source, scale Scale) (*core.LiveResult, error) {
	cfg := core.LiveConfig{
		Spec:     topology.Testbed(),
		Source:   src,
		Cost:     core.EffectiveFractionBudget{Fraction: fraction},
		Items:    scale.LiveItems,
		Window:   30 * time.Millisecond,
		RootWork: scale.RootWork,
		Queries:  []query.Kind{query.Sum, query.Count},
		Seed:     scale.Seed,
	}
	switch sys {
	case sysWHS:
		cfg.NewSampler = core.WHSFactory()
	case sysSRS:
		cfg.NewSampler = core.SRSFactory(fraction)
	case sysNative:
		cfg.NewSampler = core.NativeFactory()
		cfg.Cost = core.FractionBudget{Fraction: 1}
	}
	return core.RunLive(cfg)
}
