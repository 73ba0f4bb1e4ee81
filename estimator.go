package approxiot

import (
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/workload"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Estimator is the single-node form of ApproxIoT (§III-C case i): feed it a
// stream of readings, close a window whenever you want answers, and get
// approximate SUM/MEAN/COUNT with confidence intervals. Internally it is one
// sampling node and a query engine — the same code the full tree runs.
//
// Estimator is not safe for concurrent use; wrap it or shard by goroutine.
type Estimator struct {
	root  *core.Root
	kinds []QueryKind
}

// EstimatorOption customizes an Estimator.
type EstimatorOption func(*estimatorConfig)

type estimatorConfig struct {
	fraction   float64
	confidence Confidence
	kinds      []QueryKind
	seed       uint64
	cost       core.CostFunction
}

// WithAdaptiveBudget installs a feedback controller as the estimator's cost
// function: feed each window's Result back via controller.Observe and the
// sampling fraction converges on the controller's error target (§IV-B).
// This is the single-node installation point; full-tree runs — simulated
// and live — adapt via Config.Adaptive instead, where the runner observes
// every root window itself. Without this option the estimator keeps the
// fixed fraction passed to NewEstimator.
func WithAdaptiveBudget(controller *FeedbackController) EstimatorOption {
	return func(c *estimatorConfig) {
		if controller != nil {
			c.cost = controller
		}
	}
}

// WithQueries sets the aggregates computed per window (default Sum, Mean,
// Count).
func WithQueries(kinds ...QueryKind) EstimatorOption {
	return func(c *estimatorConfig) {
		if len(kinds) > 0 {
			c.kinds = kinds
		}
	}
}

// WithConfidence sets the error-bound level (default 95%).
func WithConfidence(conf Confidence) EstimatorOption {
	return func(c *estimatorConfig) { c.confidence = conf }
}

// WithSeed makes sampling reproducible.
func WithSeed(seed uint64) EstimatorOption {
	return func(c *estimatorConfig) { c.seed = seed }
}

// NewEstimator returns an estimator that keeps the given fraction of each
// window's items, stratified per source. Fractions outside (0, 1] fall
// back to 1 (keep everything); defaults are 95% confidence, queries
// [Sum, Mean, Count], and seed 1.
func NewEstimator(fraction float64, opts ...EstimatorOption) *Estimator {
	cfg := estimatorConfig{
		fraction:   fraction,
		confidence: TwoSigma,
		kinds:      []QueryKind{Sum, Mean, Count},
		seed:       1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.fraction <= 0 || cfg.fraction > 1 {
		cfg.fraction = 1
	}
	if cfg.cost == nil {
		cfg.cost = core.EffectiveFractionBudget{Fraction: cfg.fraction}
	}
	sampler := sample.NewWHS(xrand.New(cfg.seed), sample.WithAllocator(sample.WaterFill{}))
	engine := query.NewEngine(query.WithConfidence(cfg.confidence), query.WithPerSubstream())
	root := core.NewRoot("estimator", sampler, cfg.cost, engine, cfg.kinds...)
	return &Estimator{root: root, kinds: cfg.kinds}
}

// Add feeds one reading into the current window.
func (e *Estimator) Add(source SourceID, value float64) {
	e.AddItem(Item{Source: source, Value: value, Ts: time.Now()})
}

// AddItem feeds one item into the current window.
func (e *Estimator) AddItem(it Item) {
	e.root.IngestItems([]stream.Item{it})
}

// AddBatch feeds a pre-weighted batch — e.g. one produced by an upstream
// ApproxIoT node — into the current window.
func (e *Estimator) AddBatch(b Batch) { e.root.IngestBatch(b) }

// Close ends the current window and returns its approximate answers. The
// estimator is immediately ready for the next window.
func (e *Estimator) Close() WindowResult {
	win, _ := e.root.CloseWindow(time.Now())
	return win
}

// Observed returns the number of items in the current (open) window.
func (e *Estimator) Observed() int { return e.root.Node().Observed() }

// QuantileResult is an approximate quantile with a confidence interval.
type QuantileResult = query.QuantileResult

// GroupEstimate is one sub-stream's entry in a TopK answer.
type GroupEstimate = query.GroupEstimate

// Quantile estimates the q-th quantile of the original values behind a
// window's weighted sample. Extension beyond the paper (§VIII future work).
func Quantile(theta []Batch, q float64) QuantileResult {
	return query.Quantile(theta, q)
}

// TopK ranks sub-streams by estimated SUM over a window's weighted sample.
// Extension beyond the paper (§VIII future work).
func TopK(theta []Batch, k int) []GroupEstimate {
	return query.TopK(theta, k)
}

// CloseTheta ends the current window like Close but also returns the
// window's weighted sample batches (Θ), for use with Quantile and TopK.
func (e *Estimator) CloseTheta() (WindowResult, []Batch) {
	return e.root.CloseWindow(time.Now())
}

// NewReplay returns a Source that replays recorded items, preserving their
// inter-arrival spacing (optionally compressed via workload.WithSpeedup).
func NewReplay(items []Item) *Replay { return workload.NewReplay(items) }
