// Package approxiot is a from-scratch Go implementation of ApproxIoT
// (Wen et al., ICDCS 2018): approximate stream analytics for edge computing
// built on weighted hierarchical stratified reservoir sampling.
//
// Data from IoT sources flows up a logical tree of edge-computing nodes
// towards a datacenter root. Every node independently samples each
// sub-stream within a time interval and compounds a weight that preserves an
// exact estimate of the original stream volume (the paper's Eq. 8
// invariant), so the root can answer linear queries — SUM, MEAN, COUNT —
// over the thinned stream with rigorous error bounds, at a fraction of the
// bandwidth and compute of exact execution.
//
// Four entry points:
//
//   - Estimator: single-node online use. Feed items, close windows, read
//     estimates with confidence intervals.
//   - Simulate: run a full edge tree on deterministic virtual time with WAN
//     emulation (latency, bandwidth, saturation) — the form the paper's
//     evaluation figures use.
//   - Run: execute the tree live on goroutines chained by an in-memory
//     Kafka-style broker, mirroring the paper's Kafka Streams prototype.
//     Batch-shaped: generator-fed, fixed item count, blocks until drained.
//   - Open: the session-shaped form of Run — a long-lived Deployment
//     handle with push ingestion (Ingest / Ingester valves), streaming
//     window results (Windows), mid-run telemetry (Snapshot), adaptive
//     steering (SetTarget), and graceful shutdown (Close). The deployment
//     shape a continuously running edge-analytics service holds.
//
// The §IV-B adaptive feedback mechanism works in every entry point: a
// FeedbackController re-tunes the sampling fraction window by window to
// hold a target relative error (WithAdaptiveBudget on the Estimator,
// Config.Adaptive for Simulate, Run and Open — each adjustment is broadcast
// over a control topic, exactly like the data plane, and a Deployment can
// retune the target mid-run via SetTarget).
//
// See ARCHITECTURE.md for the package map and live-dataflow diagram, the
// examples/ directory for runnable programs, and EXPERIMENTS.md for the
// paper-figure reproductions.
package approxiot

import (
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
)

// Re-exported data-model types. Downstream users construct and consume these
// through the aliases; the implementations live in internal packages.
type (
	// SourceID identifies a sub-stream (stratum).
	SourceID = stream.SourceID
	// Item is one reading from an IoT source.
	Item = stream.Item
	// Batch is a weighted sample batch exchanged between nodes.
	Batch = stream.Batch

	// TreeSpec declares the logical edge tree (sources, layers, window).
	TreeSpec = topology.TreeSpec
	// LayerSpec declares one layer of the tree.
	LayerSpec = topology.LayerSpec

	// Estimate is a value with its estimated variance.
	Estimate = stats.Estimate
	// Confidence selects the error-bound level (68/95/99.7%).
	Confidence = stats.Confidence

	// QueryKind selects an aggregate: Sum, Mean, Count, or a parameterized
	// kind from TopKOf / QuantileOf.
	QueryKind = query.Kind
	// Result is one approximate answer with its error bound. Top-k answers
	// additionally carry Result.Groups (per-group SUM ± bound); quantile
	// answers carry Result.Quantile (value with rank-interval bounds).
	Result = query.Result
	// WindowResult is a root window's set of answers.
	WindowResult = core.WindowResult
	// SlidingResult is one sliding-window estimate (Config.Slide) composed
	// from tumbling panes, attached to the window that completes it.
	SlidingResult = core.SlidingResult

	// Generator produces workload items interval by interval.
	Generator = workload.Generator
	// Source is anything that yields the items arriving in an interval:
	// a synthetic *Generator or a *Replay of a recorded trace.
	Source = workload.Source
	// Replay feeds a recorded trace through the pipelines.
	Replay = workload.Replay
	// SubstreamSpec configures one generated sub-stream.
	SubstreamSpec = workload.SubstreamSpec

	// SimConfig / SimResult configure and report virtual-time runs.
	SimConfig = core.SimConfig
	// SimResult reports a virtual-time run.
	SimResult = core.SimResult
	// LiveConfig / LiveResult configure and report live runs.
	LiveConfig = core.LiveConfig
	// LiveResult reports a live run.
	LiveResult = core.LiveResult
	// NodeTelemetry is one live node member's lifetime measurement
	// (observed/emitted items, window intervals, throughput, pump
	// wake-ups), reported on LiveResult.Nodes.
	NodeTelemetry = core.NodeTelemetry
	// Wakeups counts a member pump's cycles that started from a park, by
	// cause (records, the member's deadline, a Sync): NodeTelemetry.Wakeups.
	Wakeups = streams.Wakeups

	// FeedbackController adapts the sampling fraction to an error target
	// (§IV-B). It drives the Estimator via WithAdaptiveBudget and full-tree
	// runs — simulated and live — via Config.Adaptive.
	FeedbackController = core.FeedbackController
	// FeedbackOption customizes NewFeedbackController.
	FeedbackOption = core.FeedbackOption
)

// Feedback-controller options, re-exported for NewFeedbackController.
var (
	// WithFractionBounds clamps the adaptive fraction to [min, max]
	// (default [0.01, 1]).
	WithFractionBounds = core.WithFractionBounds
	// WithGain sets the multiplicative adjustment step (default 1.5).
	WithGain = core.WithGain
)

// Query kinds.
const (
	Sum   = query.Sum
	Mean  = query.Mean
	Count = query.Count
)

// TopKOf returns the QueryKind for a per-window group-by top-k query: the k
// sub-streams (strata) with the largest estimated SUM, each carrying its
// Eq. 11 error bound. The window Result's headline Estimate is the combined
// SUM of the top-k groups (strata sample independently, so variances add);
// the ranked groups are on Result.Groups.
func TopKOf(k int) QueryKind { return query.TopKOf(k) }

// QuantileOf returns the QueryKind for a per-window approximate quantile at
// q in (0, 1) (permille resolution): the weighted sample quantile of the
// window's item values, with a confidence interval from the normal
// approximation to the rank distribution. The full answer is on
// Result.Quantile; the headline Estimate mirrors its value with the interval
// half-width as the TwoSigma bound.
func QuantileOf(q float64) QueryKind { return query.QuantileOf(q) }

// Confidence levels under the 68-95-99.7 rule.
const (
	OneSigma   = stats.OneSigma
	TwoSigma   = stats.TwoSigma
	ThreeSigma = stats.ThreeSigma
)

// ControlTopic names the live deployment's single-partition control
// topic — the channel adaptive runs broadcast fraction updates on. Useful
// for looking the control plane up in LiveResult.Bandwidth.
const ControlTopic = core.ControlTopicName

// ErrDrainTimeout reports that a live Close hit Config.DrainTimeout before
// the pipeline quiesced: the final result was assembled anyway, but
// in-flight items may be missing from it (LiveResult.DrainTimedOut is set).
var ErrDrainTimeout = core.ErrDrainTimeout

// Strategy selects the sampling algorithm a pipeline runs.
type Strategy int

// Available strategies.
const (
	// WHS is weighted hierarchical stratified reservoir sampling — the
	// ApproxIoT algorithm (default).
	WHS Strategy = iota + 1
	// SRS is the simple-random-sampling baseline (per-item coin flip).
	SRS
	// Native disables sampling (exact execution).
	Native
	// ParallelWHS is WHS with per-sub-stream worker parallelism (§III-E).
	ParallelWHS
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case WHS:
		return "ApproxIoT"
	case SRS:
		return "SRS"
	case Native:
		return "Native"
	case ParallelWHS:
		return "ApproxIoT-parallel"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Testbed returns the paper's 8-source / 4-2-1 evaluation tree with its WAN
// parameters (20/40/80 ms RTTs over 1 Gbps links).
func Testbed() TreeSpec { return topology.Testbed() }

// SingleNode returns a degenerate tree where sources feed the root directly.
func SingleNode(sources int) TreeSpec { return topology.SingleNode(sources) }

// Config assembles a pipeline configuration from user-level knobs. Every
// knob applies to both Simulate and Run unless its comment says otherwise.
type Config struct {
	// Tree is the deployment; defaults to Testbed().
	Tree TreeSpec
	// Strategy defaults to WHS.
	Strategy Strategy
	// Fraction is the end-to-end sampling fraction in (0, 1]; default 0.1.
	// When Adaptive is set the controller owns the budget and Fraction no
	// longer sizes it; the SRS baseline's per-item coin-flip is still
	// built from Fraction either way.
	Fraction float64
	// Workers configures ParallelWHS (default 4). Other strategies ignore it.
	Workers int
	// Queries defaults to [Sum]. Beyond the linear kinds, TopKOf(k) ranks
	// strata by estimated SUM and QuantileOf(q) answers rank queries, both
	// with per-window error bounds.
	Queries []QueryKind
	// Slide, when ≥ 2, additionally reports sliding-window estimates
	// composed from the last Slide tumbling panes (pane composition): each
	// WindowResult carries Sliding entries for the additive query kinds
	// (SUM/COUNT) whose values and variances add across panes, so the
	// composed bounds stay rigorous. Applies to both modes, and in both the
	// sliding window spans exactly Slide windows of event time (skipped
	// empty panes contribute zero).
	Slide int
	// Confidence is the error-bound level of every window result; defaults
	// to TwoSigma (95%) in both modes.
	Confidence Confidence
	// Adaptive, when set, closes the paper's §IV-B feedback loop: the
	// sampling fraction starts at the controller's current fraction and is
	// re-tuned at every root window close to steer the realized relative
	// error bound toward the controller's target. Each adjustment is
	// broadcast over the deployment's control topic (in simulation it lands
	// at once), applied by every edge member at its next window boundary
	// (the root, colocated with the controller, updates at the merge).
	// Requires a non-COUNT query to observe.
	// Takes precedence over Fraction for the budget (Fraction still
	// configures the SRS baseline's coin-flip). A controller is stateful —
	// build a fresh one per run.
	Adaptive *FeedbackController
	// SourceRate throttles each live source to at most this many items per
	// second (0 = unthrottled). Adaptive live runs use it to stretch
	// production across enough windows to converge; Open's Ingester valves
	// apply it to pushed streams too. Simulated runs ignore it — their
	// sources are rate-shaped by the workload generators.
	SourceRate float64
	// Window is the live cadence (default 50 ms). It does not pace window
	// closes: every node closes a window when its watermark passes the
	// window's end, and the root emits the result — to OnWindow and the
	// Deployment's Windows subscription — as soon as the merged watermark
	// does; nodes wake on records and on their own deadlines, not on a tick.
	// Window still sets the window length with EventTime off, the default
	// IdleTimeout (4×Window), how often a drain probes for quiescence
	// (Window/4), the checkpoint cadence (one save per Window per member,
	// with Checkpoint), and how long an ingest-stamping valve stays silent
	// before its idle beat (one Window). Simulated runs ignore it: their
	// event windows are Tree.Window long, in virtual time.
	Window time.Duration
	// EventTime selects who stamps the timestamps live windows are cut by.
	// Live windows are always event-time tumbling windows: records are
	// assigned to windows by Item.Ts at every layer, per-source low
	// watermarks ride the data path up the tree, a window closes when the
	// watermark passes its end plus AllowedLateness, and
	// WindowResult.Start/End identify it. Off (the default), every push is
	// stamped with its publish instant and windows are Window long: an
	// ingest-stamped record is never late. On, windows are Tree.Window long
	// and a caller-supplied Item.Ts is the event timestamp (a zero Ts
	// defaults to the publish instant); records past the lateness horizon
	// are counted into LiveResult.LateDropped and dropped — closed windows
	// stay exact. EventTime only selects live stamping: simulated runs
	// always cut Tree.Window-long event windows by the generators'
	// timestamps, with every strategy (the streaming SRS and Native edges
	// forward at once into the root's), and count late records into
	// SimResult.LateDropped.
	EventTime bool
	// AllowedLateness is how far out of order records may arrive and still
	// land in their window: window [s, s+W) closes once the watermark
	// reaches s+W+AllowedLateness. Live, only meaningful with EventTime
	// (ingest stamps arrive in order); simulated runs always apply it.
	AllowedLateness time.Duration
	// IdleTimeout bounds how long a silent sub-stream may hold the
	// watermark back before it is excluded from the minimum (live: wall
	// clock, default 4×Window; simulated: virtual time, default
	// 4×Tree.Window — both raised to AllowedLateness if that is larger, so
	// a source pausing within its promised lateness is never aged out).
	// Negative disables the exclusion; live that requires single-member
	// groups (RootShards and LayerShards of 1). Simulated runs always use
	// it: their members age silent sub-streams exactly as live ones do.
	IdleTimeout time.Duration
	// MaxIngestLag is the live push-side backpressure high-water mark: an
	// Ingest call blocks while its leaf topic's unconsumed backlog exceeds
	// this many records, so pushers cannot outrun the pipeline into
	// unbounded broker memory. 0 selects the default (8192); negative
	// disables backpressure. Simulated runs ignore it.
	MaxIngestLag int
	// DrainTimeout bounds how long a live Close waits for the pipeline to
	// quiesce before assembling the final result anyway; a wedged drain
	// then surfaces ErrDrainTimeout (and LiveResult.DrainTimedOut) instead
	// of silently returning a result missing in-flight items. 0 selects
	// the default (2 minutes); negative waits forever. Simulated runs
	// ignore it (virtual time cannot wedge).
	DrainTimeout time.Duration
	// Checkpoint, when set, gives every live member a place to persist its
	// recovery state (reservoir contents, watermarks, committed offsets) at
	// each window boundary, enabling Deployment.RestartMember to resurrect
	// a crashed member without double-counting or losing committed input.
	// Two backends ship with the package — NewMemoryCheckpointStore and
	// NewFileCheckpointStore. Saves are best-effort and off the hot path;
	// failures surface on Snapshot.CheckpointErrors. Every strategy runs
	// windowed live, so every strategy checkpoints. Simulate ignores it.
	Checkpoint CheckpointStore
	// OpsAddr, when non-empty, makes Open serve the deployment's
	// operational HTTP surface on this address ("127.0.0.1:9377", or ":0"
	// for an ephemeral port): /health, /metrics (Prometheus text
	// exposition), and /metrics/query windowed history. Equivalent to
	// calling Deployment.ServeOps(OpsAddr) right after Open; the surface
	// shuts down with the Deployment. Run and Simulate ignore it.
	OpsAddr string
	// OnWindow, if set, observes every non-empty window result as it
	// closes, after the feedback step — incremental observation in both
	// modes (live runs additionally offer the Deployment.Windows
	// subscription). It runs on the runner's window-close path — live, on
	// the pump of the root member that closed the window, so a slow hook
	// delays that member's consumption: keep it fast, and from a live
	// Deployment never call Close inside it (Close waits for the root
	// pumps to stop, so that deadlocks); Snapshot is safe.
	OnWindow func(WindowResult)
	// Partitions is the partition count of every live mq topic (default 1).
	// Records are keyed by sub-stream, so ordering within a stratum is
	// preserved at any partition count.
	Partitions int
	// RootShards sizes the live root consumer group (default 1, clamped to
	// Partitions). Shards aggregate their partitions independently and are
	// merged at window close; the Eq. 8 weights keep the merged count
	// estimate exact at any shard count.
	RootShards int
	// LayerShards sizes every interior (edge-layer) node's live consumer
	// group (default 1, clamped to Partitions): each node runs as that
	// many members over its input topic, every member sampling the
	// partitions it owns and forwarding its weighted batches
	// independently. Weight compounding keeps the count estimate exact at
	// any member count, so there is no merge step. Per-layer control is
	// available on core.LiveConfig.LayerShards; this knob applies one
	// count to all edge layers.
	LayerShards int
	// Seed makes runs reproducible.
	Seed uint64
}

func (c Config) normalize() Config {
	if c.Tree.Sources == 0 {
		c.Tree = Testbed()
	}
	if c.Strategy == 0 {
		c.Strategy = WHS
	}
	if c.Fraction <= 0 {
		c.Fraction = 0.1
	}
	if c.Fraction > 1 {
		c.Fraction = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if len(c.Queries) == 0 {
		c.Queries = []QueryKind{Sum}
	}
	if c.Confidence == 0 {
		c.Confidence = TwoSigma
	}
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.RootShards <= 0 {
		c.RootShards = 1
	}
	if c.RootShards > c.Partitions {
		c.RootShards = c.Partitions
	}
	if c.LayerShards <= 0 {
		c.LayerShards = 1
	}
	if c.LayerShards > c.Partitions {
		c.LayerShards = c.Partitions
	}
	return c
}

// layerShards expands the uniform LayerShards knob into the per-edge-layer
// slice core.LiveConfig expects (nil when everything is single-member, or
// when the tree is malformed — core's validation reports that cleanly).
func (c Config) layerShards() []int {
	edgeLayers := c.Tree.RootLayer()
	if c.LayerShards <= 1 || edgeLayers <= 0 {
		return nil
	}
	out := make([]int, edgeLayers)
	for i := range out {
		out[i] = c.LayerShards
	}
	return out
}

func (c Config) samplerFactory() core.SamplerFactory {
	switch c.Strategy {
	case SRS:
		return core.SRSFactory(c.Fraction)
	case Native:
		return core.NativeFactory()
	case ParallelWHS:
		return core.ParallelWHSFactory(c.Workers)
	default:
		return core.WHSFactory()
	}
}

func (c Config) cost() core.CostFunction {
	if c.Strategy == Native {
		return core.FractionBudget{Fraction: 1}
	}
	return core.EffectiveFractionBudget{Fraction: c.Fraction}
}

// streaming reports whether the strategy forwards without edge windows in
// simulation.
func (c Config) streaming() bool { return c.Strategy == SRS || c.Strategy == Native }

// engineConfig is the core config every entry point runs: Run adds the item
// count, Simulate the virtual-time span, and Open feeds it by pushes.
func (c Config) engineConfig(source func(i int) Source) core.LiveConfig {
	return core.LiveConfig{
		Spec:            c.Tree,
		Source:          source,
		NewSampler:      c.samplerFactory(),
		Cost:            c.cost(),
		Window:          c.Window,
		Queries:         c.Queries,
		Slide:           c.Slide,
		Confidence:      c.Confidence,
		Partitions:      c.Partitions,
		RootShards:      c.RootShards,
		LayerShards:     c.layerShards(),
		Seed:            c.Seed,
		Feedback:        c.Adaptive,
		SourceRate:      c.SourceRate,
		MaxIngestLag:    c.MaxIngestLag,
		DrainTimeout:    c.DrainTimeout,
		OnWindow:        c.OnWindow,
		EventTime:       c.EventTime,
		AllowedLateness: c.AllowedLateness,
		IdleTimeout:     c.IdleTimeout,
		Checkpoint:      c.Checkpoint,
	}
}

// Simulate runs the configured pipeline on deterministic virtual time for
// the given duration: source i's items come from source(i), WAN links use
// the tree's RTT/bandwidth parameters, and every window result is reported.
// With Config.Adaptive set the sampling fraction re-tunes at every window
// close and SimResult.Fractions records the trajectory.
func Simulate(cfg Config, source func(i int) Source, duration time.Duration) (*SimResult, error) {
	cfg = cfg.normalize()
	return core.RunSim(core.SimConfig{
		LiveConfig: cfg.engineConfig(source),
		Duration:   duration,
		Streaming:  cfg.streaming(),
	})
}

// Run executes the configured pipeline live: every compiled node becomes a
// consumer group of goroutine-backed runtimes chained by an in-memory
// broker, processing `items` items total. The result always carries
// runtime telemetry — end-to-end latency, per-link bytes, per-node
// throughput — and, with Config.Adaptive set, the per-window fraction
// trajectory driven over the deployment's control topic.
//
// Run is the batch-shaped compatibility form of Open: it opens a
// Deployment, feeds `items` generator items through the same Ingester
// valves external pushers use, and closes. Long-lived services that push
// their own data should hold a Deployment instead.
func Run(cfg Config, source func(i int) Source, items int64) (*LiveResult, error) {
	lc := cfg.normalize().engineConfig(source)
	lc.Items = items
	return core.RunLive(lc)
}

// NewGenerator builds a workload generator over explicit sub-stream specs.
func NewGenerator(seed uint64, specs ...SubstreamSpec) *Generator {
	return workload.New(seed, specs...)
}

// NewFeedbackController returns the §IV-B adaptive controller: a
// multiplicative-increase/decrease loop (default gain 1.5, fraction bounds
// [0.01, 1] — see WithGain and WithFractionBounds) whose fraction moves
// toward the target relative error as window results are observed.
//
// Three installation points, one per entry point: WithAdaptiveBudget on an
// Estimator (caller feeds results back via Observe), or Config.Adaptive
// for Simulate and Run (the runners observe every root window themselves —
// live, the adjustment travels the deployment's control topic). The
// controller is stateful; build a fresh one per run.
func NewFeedbackController(initialFraction, targetRelError float64, opts ...FeedbackOption) *FeedbackController {
	return core.NewFeedbackController(initialFraction, targetRelError, opts...)
}

// Compile-time facade checks.
var (
	_ = sample.Sampler(sample.Passthrough{})
	_ = core.CostFunction(core.FixedBudget{})
)
