package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/topology"
)

// adaptiveLiveConfig is the paced live deployment the convergence tests
// share: long enough production (~40 ms windows over ~1.2 s) for the
// controller to walk its full bound range.
func adaptiveLiveConfig(ctl *FeedbackController) LiveConfig {
	return LiveConfig{
		Spec:       topology.Testbed(),
		Source:     microSource(9, 1000),
		NewSampler: WHSFactory(),
		Items:      40000,
		Window:     40 * time.Millisecond,
		Queries:    []query.Kind{query.Sum, query.Count},
		Seed:       9,
		Feedback:   ctl,
		SourceRate: 2000,
	}
}

// TestLiveAdaptiveStepConvergence drives the live control plane through a
// step change in the analyst's error target and asserts bounded-time
// convergence. Extreme targets pin both plateaus deterministically: a very
// lax target (0.5) decays the fraction to the lower bound; mid-run the
// target drops to effectively zero, so the controller must multiply the
// fraction up to the upper bound — one gain step per window, i.e. within
// K = ceil(log_gain(max/min)) windows of the step — and hold it there.
func TestLiveAdaptiveStepConvergence(t *testing.T) {
	ctl := newStepController()
	cfg := adaptiveLiveConfig(ctl)
	var windows int
	cfg.OnWindow = func(WindowResult) {
		windows++
		if windows == stepAt {
			ctl.SetTarget(1e-9)
		}
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	assertCountInvariant(t, "adaptive step", res.EstimateCount, float64(res.Produced))
	assertStepConvergence(t, res.Fractions)
}

// The step-convergence run: newStepController's bounds and gain, and the
// window at which its target drops to effectively zero.
const (
	stepMinFrac = 0.01
	stepMaxFrac = 0.8 // < 1 so the full-sample zero-bound corner stays out of play
	stepGain    = 1.5
	stepAt      = 8 // window index of the target change
)

// newStepController builds the step-convergence run's controller: a lax
// target (0.5) that decays the fraction to the lower bound.
func newStepController() *FeedbackController {
	return NewFeedbackController(0.2, 0.5, WithFractionBounds(stepMinFrac, stepMaxFrac), WithGain(stepGain))
}

// assertStepConvergence checks a step run's fraction trajectory: pinned at
// the lower bound before the step, at the upper bound within K windows (+
// slack) after it, and never off it again.
func assertStepConvergence(t *testing.T, fractions []float64) {
	t.Helper()
	// K MIMD steps bridge the full bound range; allow a few windows of
	// scheduler slack on top.
	K := int(math.Ceil(math.Log(stepMaxFrac/stepMinFrac) / math.Log(stepGain)))
	if len(fractions) < stepAt+K+4 {
		t.Fatalf("only %d windows closed, need at least %d to observe convergence", len(fractions), stepAt+K+4)
	}
	// Before the step: the lax target has the fraction pinned at the lower
	// bound (the decay from 0.2 to 0.01 takes ~7 windows).
	if f := fractions[stepAt-1]; f != stepMinFrac {
		t.Fatalf("fraction before the step = %g, want pinned at min %g (trajectory %v)", f, stepMinFrac, fractions)
	}
	// After the step: the fraction must reach the upper bound within K
	// windows (+slack) and never leave it again.
	reached := -1
	for i := stepAt; i < len(fractions); i++ {
		if fractions[i] == stepMaxFrac {
			reached = i
			break
		}
	}
	if reached < 0 {
		t.Fatalf("fraction never reached max after the step: %v", fractions)
	}
	if reached > stepAt+K+3 {
		t.Fatalf("fraction took %d windows to converge, want ≤ %d (trajectory %v)", reached-stepAt, K+3, fractions)
	}
	for i := reached; i < len(fractions); i++ {
		if fractions[i] != stepMaxFrac {
			t.Fatalf("fraction left the plateau at window %d: %v", i, fractions)
		}
	}
}

// TestAdaptiveRejectsCountOnlyQueries pins the validation both runners
// share: COUNT is exact under Eq. 8 (zero-width bound), so a feedback loop
// with nothing but COUNT to observe would silently decay the fraction to
// its floor — the config is rejected instead.
func TestAdaptiveRejectsCountOnlyQueries(t *testing.T) {
	cfg := adaptiveLiveConfig(NewFeedbackController(0.1, 0.02))
	cfg.Queries = []query.Kind{query.Count}
	if _, err := RunLive(cfg); !errors.Is(err, ErrFeedbackNeedsQuery) {
		t.Fatalf("live err = %v, want ErrFeedbackNeedsQuery", err)
	}
	if _, err := RunSim(SimConfig{
		LiveConfig: LiveConfig{
			Spec:       topology.Testbed(),
			Source:     microSource(9, 250),
			NewSampler: WHSFactory(),
			Queries:    []query.Kind{query.Count},
			Feedback:   NewFeedbackController(0.1, 0.02),
		},
		Duration: 2 * time.Second,
	}); !errors.Is(err, ErrFeedbackNeedsQuery) {
		t.Fatalf("sim err = %v, want ErrFeedbackNeedsQuery", err)
	}
	// COUNT alongside an informative kind is fine — the loop observes the
	// other kind (order irrelevant).
	cfg = adaptiveLiveConfig(NewFeedbackController(0.1, 0.02))
	cfg.Queries = []query.Kind{query.Count, query.Sum}
	cfg.Items = 4000
	cfg.SourceRate = 0
	if _, err := RunLive(cfg); err != nil {
		t.Fatalf("Count+Sum adaptive run rejected: %v", err)
	}
}

// TestLiveAdaptiveValidation pins the Feedback-over-Cost contract: a nil
// Cost is fine when a controller is installed, and the frozen-cost path
// reports no fraction trajectory.
func TestLiveAdaptiveValidation(t *testing.T) {
	ctl := NewFeedbackController(0.5, 0.05)
	cfg := adaptiveLiveConfig(ctl)
	cfg.Cost = nil // Feedback owns the budget
	cfg.Items = 4000
	cfg.SourceRate = 0 // unpaced: validation only needs one window
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive with nil Cost + Feedback: %v", err)
	}
	assertCountInvariant(t, "nil-cost adaptive", res.EstimateCount, float64(res.Produced))

	frozen, err := RunLive(liveConfig(4000, 0.5))
	if err != nil {
		t.Fatalf("RunLive frozen: %v", err)
	}
	if frozen.Fractions != nil {
		t.Fatalf("frozen-cost run recorded a fraction trajectory: %v", frozen.Fractions)
	}
	if frozen.Latency.Count() == 0 || frozen.Bandwidth.Total() == 0 || len(frozen.Nodes) == 0 {
		t.Fatal("telemetry must be populated on frozen-cost runs too")
	}
}
