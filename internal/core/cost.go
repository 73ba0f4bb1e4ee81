// Package core assembles ApproxIoT from its parts: the per-node workflow of
// Algorithm 2 (Node, Root), the budget-to-sample-size cost function, the
// adaptive feedback loop of §IV-B, and the engine that instantiates a
// topology.TreeSpec as consumer groups over a message bus, matching the
// paper's Kafka deployment — live on real goroutines (OpenLive, OpenNode,
// RunLive), or on deterministic virtual time over emulated WAN links
// (RunSim).
package core

import (
	"math"
	"sync"

	"github.com/approxiot/approxiot/internal/query"
)

// CostFunction translates a node's resource budget into the interval's
// sample size (Algorithm 2, line 3). The paper assumes such a function
// exists and configures it manually; FractionBudget and FixedBudget are the
// two obvious instances, and FeedbackController closes the loop the paper's
// §IV-B sketches.
type CostFunction interface {
	// SampleSize returns the reservoir budget for an interval in which
	// observed items arrived.
	SampleSize(observed int) int
}

// FractionBudget keeps a fixed fraction of the interval's input — the
// "sampling fraction" knob every figure of the evaluation sweeps.
type FractionBudget struct {
	// Fraction in (0, 1]; values above 1 behave like 1 (keep everything).
	Fraction float64
}

// SampleSize implements CostFunction as ceil(fraction · observed).
func (f FractionBudget) SampleSize(observed int) int {
	if f.Fraction <= 0 || observed <= 0 {
		return 0
	}
	if f.Fraction >= 1 {
		return observed
	}
	return int(math.Ceil(f.Fraction * float64(observed)))
}

// FixedBudget keeps at most Size items per interval regardless of input —
// the natural knob for a memory-constrained edge node.
type FixedBudget struct {
	Size int
}

// SampleSize implements CostFunction.
func (f FixedBudget) SampleSize(int) int {
	if f.Size < 0 {
		return 0
	}
	return f.Size
}

// WeightedCostFunction is an optional extension: cost functions that size
// the sample against the *estimated original* stream volume Σ W^in·c —
// which Eq. 8 makes exactly available at every node — rather than against
// the already-thinned input. Node.CloseInterval prefers this interface.
type WeightedCostFunction interface {
	CostFunction
	// SampleSizeWeighted returns the budget for an interval whose pairs
	// estimate estOriginal original items.
	SampleSizeWeighted(estOriginal float64) int
}

// EffectiveFractionBudget keeps Fraction of the estimated original stream:
// the first sampling layer thins the stream to the fraction, and layers
// above — whose budget then matches or exceeds what they receive — forward
// with weights intact. This makes the configured fraction the system's
// end-to-end sampling fraction, which is what the paper's evaluation sweeps
// (and why Fig. 7's bandwidth saving is 1−f on every sampled segment).
type EffectiveFractionBudget struct {
	Fraction float64
}

var _ WeightedCostFunction = EffectiveFractionBudget{}

// SampleSize implements CostFunction for unweighted callers (observed input
// treated as original volume).
func (e EffectiveFractionBudget) SampleSize(observed int) int {
	return FractionBudget{Fraction: e.Fraction}.SampleSize(observed)
}

// SampleSizeWeighted implements WeightedCostFunction.
func (e EffectiveFractionBudget) SampleSizeWeighted(estOriginal float64) int {
	if e.Fraction <= 0 || estOriginal <= 0 {
		return 0
	}
	f := e.Fraction
	if f > 1 {
		f = 1
	}
	return int(math.Ceil(f * estOriginal))
}

// FeedbackController implements the adaptive feedback mechanism of §IV-B:
// when the error bound of a window result exceeds the user's target, the
// sampling parameters are refined (fraction raised) for subsequent runs;
// when the error is comfortably under target, the fraction is relaxed to
// save resources. It is itself a CostFunction, so it can be installed
// directly on every node of the tree.
//
// The controller is multiplicative-increase / multiplicative-decrease with
// a dead band: relative error above target scales the fraction up by Gain,
// error below target/2 scales it down by Gain.
type FeedbackController struct {
	mu       sync.Mutex
	fraction float64
	target   float64
	min, max float64
	gain     float64
}

// FeedbackOption customizes the controller.
type FeedbackOption func(*FeedbackController)

// WithFractionBounds clamps the fraction to [min, max].
func WithFractionBounds(min, max float64) FeedbackOption {
	return func(f *FeedbackController) {
		if min > 0 {
			f.min = min
		}
		if max > 0 && max <= 1 {
			f.max = max
		}
	}
}

// WithGain sets the multiplicative adjustment step (default 1.5).
func WithGain(g float64) FeedbackOption {
	return func(f *FeedbackController) {
		if g > 1 {
			f.gain = g
		}
	}
}

// NewFeedbackController returns a controller starting at initialFraction
// that steers the relative error bound (bound / |estimate|) towards target.
func NewFeedbackController(initialFraction, targetRelError float64, opts ...FeedbackOption) *FeedbackController {
	f := &FeedbackController{
		fraction: clamp(initialFraction, 0.01, 1),
		target:   targetRelError,
		min:      0.01,
		max:      1,
		gain:     1.5,
	}
	for _, opt := range opts {
		opt(f)
	}
	f.fraction = clamp(f.fraction, f.min, f.max)
	return f
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Fraction returns the current sampling fraction.
func (f *FeedbackController) Fraction() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fraction
}

// Target returns the current relative-error target.
func (f *FeedbackController) Target() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.target
}

// SetTarget changes the relative-error target mid-run — the analyst
// tightening or relaxing their error budget while the pipeline is live.
// The fraction itself is untouched; subsequent Observe calls steer it
// toward the new target. Non-positive targets are ignored.
func (f *FeedbackController) SetTarget(target float64) {
	if target <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.target = target
}

// SampleSize implements CostFunction at the current fraction.
func (f *FeedbackController) SampleSize(observed int) int {
	return FractionBudget{Fraction: f.Fraction()}.SampleSize(observed)
}

// Observe feeds one window's query result back into the controller and
// returns the (possibly adjusted) fraction to use next.
func (f *FeedbackController) Observe(res query.Result) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := math.Abs(res.Estimate.Value)
	if v == 0 || res.SampleSize == 0 {
		return f.fraction // nothing informative this window
	}
	rel := res.Bound() / v
	switch {
	case rel > f.target:
		f.fraction = clamp(f.fraction*f.gain, f.min, f.max)
	case rel < f.target/2:
		f.fraction = clamp(f.fraction/f.gain, f.min, f.max)
	}
	return f.fraction
}
