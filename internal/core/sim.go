package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/netsim"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/vclock"
	"github.com/approxiot/approxiot/internal/workload"
	"github.com/approxiot/approxiot/internal/xrand"
)

// SamplerFactory builds the sampling strategy for one node of the tree.
// layer is -1 for none (unused), 0..rootLayer otherwise.
type SamplerFactory func(layer, node int, seed uint64) sample.Sampler

// WHSFactory configures every node with weighted hierarchical sampling —
// the ApproxIoT system. The default allocator is WaterFill so unbalanced
// sub-streams cannot strand budget; pass sample.WithAllocator to override.
func WHSFactory(opts ...sample.WHSOption) SamplerFactory {
	return func(layer, node int, seed uint64) sample.Sampler {
		all := make([]sample.WHSOption, 0, len(opts)+1)
		all = append(all, sample.WithAllocator(sample.WaterFill{}))
		all = append(all, opts...)
		return sample.NewWHS(xrandFor(layer, node, seed), all...)
	}
}

// SRSFactory configures the SRS baseline: the first edge layer flips a coin
// per item at the configured fraction (thinning the stream to the system's
// end-to-end sampling fraction, matching ApproxIoT's effective budget) and
// layers above forward the survivors. SRS needs no window, so it pairs with
// SimConfig.Streaming.
func SRSFactory(fraction float64) SamplerFactory {
	return func(layer, node int, seed uint64) sample.Sampler {
		if layer == 0 {
			return sample.NewCoinFlipFraction(xrandFor(layer, node, seed), fraction)
		}
		return sample.Passthrough{}
	}
}

// SRSBudgetFactory configures coin-flip sampling whose keep probability
// tracks the node's interval budget instead of a fixed fraction (windowed
// operation).
func SRSBudgetFactory() SamplerFactory {
	return func(layer, node int, seed uint64) sample.Sampler {
		return sample.NewCoinFlip(xrandFor(layer, node, seed))
	}
}

// NativeFactory disables sampling everywhere — the native baseline.
func NativeFactory() SamplerFactory {
	return func(int, int, uint64) sample.Sampler { return sample.Passthrough{} }
}

// ParallelWHSFactory configures nodes with the §III-E parallel sampler.
func ParallelWHSFactory(workers int) SamplerFactory {
	return func(layer, node int, seed uint64) sample.Sampler {
		return sample.NewParallelWHS(workers, nodeSeed(layer, node, seed))
	}
}

// Failure takes one node offline for a period: while down, the node drops
// everything it would have forwarded (crash of a sampling node).
type Failure struct {
	Layer int
	Node  int
	At    time.Duration // offset from simulation start
	For   time.Duration
}

// SimConfig describes one simulated experiment.
type SimConfig struct {
	// Spec is the tree deployment (topology.Testbed() reproduces §V-A).
	Spec topology.TreeSpec
	// Source returns the workload generator for source node i. Required.
	Source func(i int) workload.Source
	// NewSampler builds each node's strategy. Required.
	NewSampler SamplerFactory
	// Cost is the budget→sample-size policy, shared by all nodes. Required.
	Cost CostFunction
	// Duration is how long sources generate. After it, the pipeline drains.
	Duration time.Duration
	// RootServiceRate is the datacenter's processing capacity in
	// items/second (0 = infinite). The saturation experiments set this.
	RootServiceRate float64
	// ChunksPerWindow is the source send granularity (default 8).
	ChunksPerWindow int
	// Queries lists the aggregates the root runs per window (default SUM).
	Queries []query.Kind
	// Slide, when ≥ 2, composes sliding-window estimates from the last
	// Slide tumbling panes at the root (pane composition): each reported
	// window additionally carries WindowResult.Sliding for the additive
	// query kinds (SUM/COUNT), with variances added across panes.
	Slide int
	// Streaming makes edge nodes forward immediately instead of buffering
	// a window: each arriving batch is sampled and shipped on the spot.
	// This models the SRS and native baselines, which need no window at
	// the edge layers (the Fig. 9 contrast) — only the root's query window
	// remains. Reservoir-based strategies need Streaming=false.
	Streaming bool
	// EventTime switches window assignment from arrival order to
	// event-time tumbling windows of Spec.Window length, driven by the
	// same per-source watermark machinery the live runner uses — in
	// virtual time. With LinkJitter reordering deliveries, records are
	// assigned to the window their timestamp names, and records past the
	// lateness horizon land in SimResult.LateDropped. Incompatible with
	// Streaming.
	EventTime bool
	// AllowedLateness is how far event time may run behind the watermark
	// before a window closes (see LiveConfig.AllowedLateness). Only
	// meaningful with EventTime.
	AllowedLateness time.Duration
	// IdleTimeout bounds how long a silent sub-stream can hold the
	// watermark back, in virtual time (default 4×Spec.Window, raised to
	// AllowedLateness if that is larger; negative disables the exclusion).
	// Only meaningful with EventTime.
	IdleTimeout time.Duration
	// Confidence for error bounds (default 95%).
	Confidence stats.Confidence
	// Seed drives all samplers.
	Seed uint64
	// Feedback, when set, closes the §IV-B loop on the simulated tree:
	// every node's budget reads the controller's fraction (effective
	// end-to-end semantics, like EffectiveFractionBudget), and at each
	// root window close the controller observes the result of the first
	// registered non-COUNT query kind (COUNT is exact by Eq. 8, so its
	// bound is uninformative) and adjusts. Feedback takes precedence over
	// Cost (which may then be nil). In simulation the controller is shared
	// memory — the live runner's control topic is the distributed form of
	// the same loop. A controller is stateful — use a fresh one per run.
	Feedback *FeedbackController
	// OnWindow, if set, observes every window result as it is produced,
	// after the feedback step.
	OnWindow func(WindowResult)
	// Failures optionally crash nodes mid-run.
	Failures []Failure
	// LinkJitter perturbs every link's propagation delay by a seeded
	// uniform ± amount (0 = none). Batches may arrive out of order.
	LinkJitter time.Duration
	// LinkLoss drops each link message independently with this
	// probability (0 = lossless). Lost batches are simply gone — the
	// estimate degrades but the pipeline keeps running.
	LinkLoss float64
	// DrainWindows is how many extra windows to run after Duration so
	// in-flight data reaches the root (default: layers + 2).
	DrainWindows int
}

// SimResult is everything a simulated run measured.
type SimResult struct {
	// Windows holds every root window result in order.
	Windows []WindowResult
	// Latency is the end-to-end item latency distribution (source
	// timestamp → root query execution), over sampled items.
	Latency *metrics.Histogram
	// LayerBytes[l] is the total bytes carried by the links into layer l.
	LayerBytes []int64
	// LayerMessages[l] counts link-level messages into layer l.
	LayerMessages []int64
	// Generated counts items produced at the sources.
	Generated int64
	// TruthSum and TruthCount are exact per-sub-stream ground truth
	// accumulated at generation time.
	TruthSum   map[stream.SourceID]float64
	TruthCount map[stream.SourceID]int64
	// RootObserved counts items that reached the root (post edge
	// sampling, pre root sampling).
	RootObserved int64
	// LateDropped counts items that arrived past the lateness horizon in
	// event-time mode: their window had already closed at the node that
	// would have buffered them (counted once, at the first node that
	// rejects them). Always 0 in processing-time mode.
	LateDropped int64
	// LateDroppedInput is the estimated original input the late-dropped
	// records represent (each drop weighted by its batch's compounded
	// weight). At leaves this equals LateDropped; when an interior node
	// drops an already-sampled batch it exceeds it. The exact identity is
	// Σ Windows.EstimatedInput + LateDroppedInput == Produced.
	LateDroppedInput float64
	// Fractions is the adaptive trajectory: the controller's fraction
	// after observing each entry of Windows, in order. Nil when Feedback
	// is not configured.
	Fractions []float64
	// Elapsed is the simulated time covered (duration + drain).
	Elapsed time.Duration
}

// TotalTruth returns the exact total of all generated item values.
func (r *SimResult) TotalTruth() float64 {
	var t float64
	for _, v := range r.TruthSum {
		t += v
	}
	return t
}

// TotalEstimate sums a query kind's estimates across windows. For SUM and
// COUNT this estimates the run total.
func (r *SimResult) TotalEstimate(kind query.Kind) float64 {
	var t float64
	for _, w := range r.Windows {
		t += w.Result(kind).Estimate.Value
	}
	return t
}

// AccuracyLoss returns the paper's accuracy-loss metric for the run total
// of a SUM or COUNT query: |approx − exact| / exact.
func (r *SimResult) AccuracyLoss(kind query.Kind) float64 {
	var exact float64
	switch kind {
	case query.Sum:
		exact = r.TotalTruth()
	case query.Count:
		for _, c := range r.TruthCount {
			exact += float64(c)
		}
	default:
		return 0
	}
	return stats.AccuracyLoss(r.TotalEstimate(kind), exact)
}

// TotalBytes sums link traffic across all layers.
func (r *SimResult) TotalBytes() int64 {
	var t int64
	for _, b := range r.LayerBytes {
		t += b
	}
	return t
}

// Configuration errors.
var (
	// ErrEventTimeStreaming rejects a simulation combining EventTime with
	// Streaming: streaming forwards per batch with no edge windows to
	// assign records to, so event-time windowing has nothing to act on.
	ErrEventTimeStreaming = errors.New("core: EventTime requires windowed mode (Streaming must be false)")
	ErrNoSourceFunc       = errors.New("core: SimConfig.Source is required")
	ErrNoSampler          = errors.New("core: SimConfig.NewSampler is required")
	ErrNoCost             = errors.New("core: SimConfig.Cost is required")
	ErrNoDuration         = errors.New("core: SimConfig.Duration must be positive")
)

func nodeSeed(layer, node int, seed uint64) uint64 {
	return seed ^ (uint64(layer+1) << 32) ^ uint64(node+1)
}

func xrandFor(layer, node int, seed uint64) *xrand.Rand {
	return xrand.New(nodeSeed(layer, node, seed))
}

// simNode is one computing node plus its uplink.
type simNode struct {
	id     string // compiled node ID; the watermark origin for forwards
	node   *Node
	uplink *netsim.Link
	parent *simNode // nil for root
	isRoot bool
	root   *Root
	// Event-time mode: per-event-window Ψ and the node's watermark state,
	// exactly the structures the live members carry.
	ew *eventWindows
	wt *watermarkTracker
	// downs lists [from, to) windows during which the node is crashed.
	downs []timeRange
}

type timeRange struct{ from, to time.Time }

// down reports whether the node is inside a failure window at instant t.
func (sn *simNode) down(t time.Time) bool {
	for _, r := range sn.downs {
		if !t.Before(r.from) && t.Before(r.to) {
			return true
		}
	}
	return false
}

// RunSim executes one experiment and returns its measurements.
func RunSim(cfg SimConfig) (*SimResult, error) {
	if cfg.Feedback != nil {
		cfg.Cost = feedbackCost{ctl: cfg.Feedback}
	}
	plan, err := CompilePlan(PlanConfig{
		Spec:       cfg.Spec,
		NewSampler: cfg.NewSampler,
		Cost:       cfg.Cost,
		Queries:    cfg.Queries,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Source == nil {
		return nil, ErrNoSourceFunc
	}
	if cfg.Duration <= 0 {
		return nil, ErrNoDuration
	}
	if cfg.Feedback != nil && feedbackKind(plan.Queries) == query.Count {
		return nil, ErrFeedbackNeedsQuery
	}
	if cfg.ChunksPerWindow <= 0 {
		cfg.ChunksPerWindow = 8
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = stats.TwoSigma
	}
	if cfg.DrainWindows <= 0 {
		cfg.DrainWindows = len(cfg.Spec.Layers) + 2
	}
	if cfg.EventTime {
		if cfg.Streaming {
			return nil, ErrEventTimeStreaming
		}
		if cfg.AllowedLateness < 0 {
			cfg.AllowedLateness = 0
		}
		switch {
		case cfg.IdleTimeout == 0:
			// Default: several windows, but never less than the lateness
			// horizon (mirrors the live runner — a source pausing within
			// its promised lateness must not be aged out of the minimum).
			cfg.IdleTimeout = 4 * plan.Spec.Window
			if cfg.AllowedLateness > cfg.IdleTimeout {
				cfg.IdleTimeout = cfg.AllowedLateness
			}
		case cfg.IdleTimeout < 0:
			cfg.IdleTimeout = 0 // tracker semantics: 0 = never exclude
		}
	}
	var late lateCounter // event-time mode: records past the lateness horizon

	epoch := time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)
	sim := vclock.NewSim(epoch)
	spec := plan.Spec
	rootLayer := plan.RootLayer()

	res := &SimResult{
		Latency:       metrics.NewHistogram(),
		LayerBytes:    make([]int64, len(spec.Layers)),
		LayerMessages: make([]int64, len(spec.Layers)),
		TruthSum:      make(map[stream.SourceID]float64),
		TruthCount:    make(map[stream.SourceID]int64),
	}

	// Instantiate the compiled plan bottom-up: parent edges, IDs, and seed
	// lineage all come from the node descriptors. Event-time mode swaps
	// every node's single-interval Ψ for a per-event-window store plus a
	// watermark tracker — the same structures the live members carry.
	engine := query.NewEngine(query.WithConfidence(cfg.Confidence))
	layers := make([][]*simNode, len(spec.Layers))
	var root *simNode
	for l := len(spec.Layers) - 1; l >= 0; l-- {
		layers[l] = make([]*simNode, len(plan.Layers[l]))
		for i, desc := range plan.Layers[l] {
			desc := desc
			sn := &simNode{id: desc.ID}
			if desc.IsRoot {
				sn.isRoot = true
				sn.root = plan.NewRoot(engine)
				root = sn
			} else {
				sn.node = plan.NewNode(desc)
				sn.parent = layers[desc.ParentLayer][desc.ParentIndex]
			}
			if cfg.EventTime {
				sn.ew = newEventWindows(spec.Window, cfg.AllowedLateness, &late,
					func() *Node { return plan.NewNode(desc) })
				sn.wt = newWatermarkTracker(cfg.IdleTimeout, sn.ew.strata)
				// Statically-known producers hold the watermark until heard
				// from, exactly like the live members (see
				// Plan.ExpectedProducers).
				for _, from := range plan.ExpectedProducers(desc) {
					sn.wt.expect(from, epoch)
				}
			}
			layers[l][i] = sn
		}
	}

	// Links into each layer: one per child (sources feed layer 0).
	linkSeq := uint64(0)
	mkLink := func(ls topology.LayerSpec) *netsim.Link {
		linkSeq++
		opts := []netsim.LinkOption{
			netsim.WithRTT(ls.LinkRTT),
			netsim.WithBandwidth(ls.LinkBandwidth),
		}
		if cfg.EventTime {
			// Watermarks ride the data path, so per-chain delivery must be
			// ordered (as mq partitions are live): jitter then varies
			// latency — cross-link arrival order still scrambles — without
			// letting a watermark overtake the data it vouches for.
			opts = append(opts, netsim.WithFIFO())
		}
		if cfg.LinkJitter > 0 {
			opts = append(opts, netsim.WithJitter(cfg.LinkJitter, cfg.Seed^linkSeq))
		}
		if cfg.LinkLoss > 0 {
			opts = append(opts, netsim.WithLoss(cfg.LinkLoss, cfg.Seed^(linkSeq<<16)))
		}
		return netsim.NewLink(sim, opts...)
	}
	sourceLinks := make([]*netsim.Link, spec.Sources)
	sourceParents := make([]*simNode, spec.Sources)
	for s := 0; s < spec.Sources; s++ {
		sourceLinks[s] = mkLink(spec.Layers[0])
		sourceParents[s] = layers[0][plan.Sources[s].ParentIndex]
	}
	for l := 1; l < len(spec.Layers); l++ {
		for _, child := range layers[l-1] {
			child.uplink = mkLink(spec.Layers[l])
		}
	}

	// Root service model: arriving batches queue behind a server with a
	// fixed per-item cost before landing in the root's window store. An
	// item's end-to-end latency is measured the moment the root processes
	// it into the window aggregate (record-at-a-time, as in Kafka
	// Streams) — edge-window waits, network, and service queueing all
	// count; waiting for the window result to be emitted does not.
	var rootBusy time.Time
	ingestAtRoot := func(b stream.Batch, wm mq.Watermark) {
		now := sim.Now()
		for _, it := range b.Items {
			res.Latency.Observe(now.Sub(it.Ts))
		}
		if cfg.EventTime {
			// Ingest before folding the piggybacked watermark, mirroring
			// the live members: a record must land in the window its own
			// watermark may close.
			root.ew.ingest(b)
			switch {
			case wm.At.IsZero():
				if wm.From != "" {
					root.wt.keepalive(wm.From, now)
				}
			default:
				root.wt.update(wm, b.Source, now)
			}
			return
		}
		root.root.IngestBatch(b)
	}
	deliverToRoot := func(b stream.Batch, wm mq.Watermark) {
		res.RootObserved += int64(len(b.Items))
		if cfg.RootServiceRate <= 0 {
			ingestAtRoot(b, wm)
			return
		}
		start := sim.Now()
		if rootBusy.After(start) {
			start = rootBusy
		}
		work := time.Duration(float64(len(b.Items)) / cfg.RootServiceRate * float64(time.Second))
		rootBusy = start.Add(work)
		sim.At(rootBusy, func() { ingestAtRoot(b, wm) })
	}

	// forward sends one batch from a child node over its uplink (wm is the
	// piggybacked watermark, zero outside event-time mode); deliver hands a
	// batch to an edge node — buffering it into the node's window (default),
	// sampling-and-relaying immediately (Streaming), or assigning it to its
	// event-time window and advancing the node's watermark (EventTime).
	var deliver func(sn *simNode, layerIdx int, b stream.Batch, wm mq.Watermark)
	var advanceEvent func(sn *simNode, layerIdx int) bool
	forward := func(child *simNode, layerIdx int, b stream.Batch, wm mq.Watermark) {
		size := b.WireSize()
		res.LayerBytes[layerIdx+1] += int64(size)
		res.LayerMessages[layerIdx+1]++
		parent := child.parent
		child.uplink.Send(size, func() {
			if parent.isRoot {
				deliverToRoot(b, wm)
			} else {
				deliver(parent, layerIdx+1, b, wm)
			}
		})
	}
	deliver = func(sn *simNode, layerIdx int, b stream.Batch, wm mq.Watermark) {
		if cfg.EventTime {
			sn.ew.ingest(b)
			switch {
			case wm.At.IsZero():
				if wm.From != "" {
					sn.wt.keepalive(wm.From, sim.Now())
				}
			case sn.wt.update(wm, b.Source, sim.Now()):
				// First sight of this chain: announce it upstream at the
				// node's outbound watermark — never the inbound one, which
				// may promise windows this node has not flushed yet — so no
				// close can pass its data by (see the live runner's
				// announce).
				if out := sn.ew.outboundWatermark(); !out.IsZero() && !sn.down(sim.Now()) {
					forward(sn, layerIdx, heartbeat(b.Source), mq.Watermark{From: sn.id, At: out})
				}
			}
			advanceEvent(sn, layerIdx)
			return
		}
		sn.node.IngestBatch(b)
		if !cfg.Streaming {
			return
		}
		out := sn.node.CloseInterval()
		if sn.down(sim.Now()) {
			return
		}
		for _, ob := range out {
			forward(sn, layerIdx, ob, mq.Watermark{})
		}
	}
	// beatActive is the live members' beatActive: a heartbeat per active
	// sub-stream at the outbound watermark, recorded as a full beat.
	beatActive := func(sn *simNode, layerIdx int, now time.Time) {
		out := mq.Watermark{From: sn.id, At: sn.ew.outboundWatermark()}
		srcs := sn.wt.activeSources(now)
		for _, src := range srcs {
			forward(sn, layerIdx, heartbeat(src), out)
		}
		if len(srcs) > 0 {
			sn.wt.beat(now)
		}
	}
	// advanceEvent closes every event window the node's watermark makes
	// due, forwards the results, and reports whether the close bound
	// moved: data stamped with each window's dataWatermark (the watermark
	// ladder — see the live runner's advanceEventTime), then a full beat
	// so parents advance across empty windows. A crashed node still resets
	// its windows but forwards nothing, like the processing-time tick.
	advanceEvent = func(sn *simNode, layerIdx int) bool {
		now := sim.Now()
		wm := sn.wt.watermark(now)
		if !sn.ew.wouldAdvance(wm) {
			return false
		}
		closed := sn.ew.advance(wm)
		if sn.down(now) {
			return true
		}
		for _, cw := range closed {
			stamp := mq.Watermark{From: sn.id, At: sn.ew.dataWatermark(cw.start)}
			for _, b := range cw.theta {
				forward(sn, layerIdx, b, stamp)
			}
		}
		beatActive(sn, layerIdx, now)
		return true
	}

	end := epoch.Add(cfg.Duration)
	drainEnd := end.Add(time.Duration(cfg.DrainWindows) * spec.Window)

	// Sources: every chunk, generate items and ship one batch per
	// sub-stream to the leaf layer.
	chunk := spec.Window / time.Duration(cfg.ChunksPerWindow)
	if chunk <= 0 {
		chunk = spec.Window
	}
	for s := 0; s < spec.Sources; s++ {
		s := s
		gen := cfg.Source(s)
		link, parent := sourceLinks[s], sourceParents[s]
		// Event-time mode: the source's per-sub-stream low watermark — the
		// highest event timestamp generated so far — piggybacks on every
		// batch it ships, exactly like the live Ingester valves.
		var marks map[stream.SourceID]time.Time
		if cfg.EventTime {
			marks = make(map[stream.SourceID]time.Time)
		}
		var tick func()
		tick = func() {
			now := sim.Now()
			if !now.Before(end) {
				return
			}
			items := gen.Generate(now, chunk)
			res.Generated += int64(len(items))
			for _, it := range items {
				res.TruthSum[it.Source] += it.Value
				res.TruthCount[it.Source]++
			}
			// One wire message per sub-stream present in the chunk.
			for start := 0; start < len(items); {
				endIdx := start + 1
				src := items[start].Source
				for endIdx < len(items) && items[endIdx].Source == src {
					endIdx++
				}
				b := stream.Batch{Source: src, Weight: 1, Items: items[start:endIdx]}
				var wm mq.Watermark
				if cfg.EventTime {
					mark := marks[src]
					for _, it := range b.Items {
						if it.Ts.After(mark) {
							mark = it.Ts
						}
					}
					marks[src] = mark
					wm = mq.Watermark{From: sourceFrom(s), At: mark}
				}
				size := b.WireSize()
				res.LayerBytes[0] += int64(size)
				res.LayerMessages[0]++
				if parent.isRoot {
					link.Send(size, func() { deliverToRoot(b, wm) })
				} else {
					link.Send(size, func() { deliver(parent, 0, b, wm) })
				}
				start = endIdx
			}
			sim.After(chunk, tick)
		}
		sim.At(epoch, tick)
	}

	// Failures: record each node's crash windows.
	for _, f := range cfg.Failures {
		if f.Layer < 0 || f.Layer >= len(layers) || f.Node < 0 || f.Node >= len(layers[f.Layer]) {
			return nil, fmt.Errorf("core: failure targets unknown node (%d,%d)", f.Layer, f.Node)
		}
		sn := layers[f.Layer][f.Node]
		sn.downs = append(sn.downs, timeRange{from: epoch.Add(f.At), to: epoch.Add(f.At + f.For)})
	}

	// Window ticks for sampling layers (streaming mode forwards inline).
	// In event-time mode the tick is the idle-source timeout: it re-derives
	// the node's watermark — silent sub-streams may now be excluded — and
	// sweeps windows that became due, instead of closing by arrival order.
	for l := 0; l < rootLayer && !cfg.Streaming; l++ {
		l := l
		for _, sn := range layers[l] {
			sn := sn
			var tick func()
			tick = func() {
				now := sim.Now()
				if cfg.EventTime {
					// Re-assert liveness upstream when the advance did not
					// and it is due (the live members' keepalive rule): a
					// node buffering behind the lateness horizon has
					// forwarded nothing, and its parent must not age it out
					// of the minimum meanwhile.
					if !advanceEvent(sn, l) && !sn.down(now) && sn.wt.keepaliveDue(now) {
						beatActive(sn, l, now)
					}
				} else {
					out := sn.node.CloseInterval()
					if !sn.down(now) {
						for _, b := range out {
							forward(sn, l, b, mq.Watermark{})
						}
					}
				}
				if !now.Add(spec.Window).After(drainEnd) {
					sim.After(spec.Window, tick)
				}
			}
			sim.At(epoch.Add(spec.Window), tick)
		}
	}

	// emitRootWindow packages one window's Θ into a reported result and
	// steps the feedback loop — shared by the processing-time tick, the
	// event-time tick, and the end-of-stream sweep. Only windows that
	// aggregated at least one item are reported (the warm-up and drain
	// windows at the edges of the run are empty by construction).
	sliding := newSlidingState(cfg.Slide, spec.Window, cfg.Confidence, plan.Queries)
	emitRootWindow := func(result WindowResult) {
		if result.SampleSize == 0 {
			return
		}
		if sliding != nil {
			sliding.observe(&result)
		}
		res.Windows = append(res.Windows, result)
		if cfg.Feedback != nil {
			// §IV-B feedback step: in virtual time the adjusted
			// fraction is visible to every node's next window close
			// the moment Observe returns — the simulated analogue
			// of the live runner's control-topic broadcast.
			res.Fractions = append(res.Fractions, cfg.Feedback.Observe(result.Result(feedbackKind(plan.Queries))))
		}
		if cfg.OnWindow != nil {
			cfg.OnWindow(result)
		}
	}
	closeRootEvent := func(now, wm time.Time) {
		closed := root.ew.advance(wm)
		for _, cw := range closed {
			win := NewWindowResult(now, engine, plan.Queries, cw.theta)
			win.Start = cw.startTime()
			win.End = win.Start.Add(spec.Window)
			emitRootWindow(win)
		}
		// Edge nodes hand their Θ to the network by reference, so only the
		// root — whose Θ dies with the query run — recycles in simulation.
		root.ew.recycle(closed)
	}

	// Root window ticks: run the queries over Θ — every event-time window
	// the root's watermark makes due, or the single processing-time window.
	{
		var tick func()
		tick = func() {
			now := sim.Now()
			if cfg.EventTime {
				closeRootEvent(now, root.wt.watermark(now))
			} else {
				result, _ := root.root.CloseWindow(now)
				root.root.Node().Recycle()
				emitRootWindow(result)
			}
			if !now.Add(spec.Window).After(drainEnd) {
				sim.After(spec.Window, tick)
			}
		}
		sim.At(epoch.Add(spec.Window), tick)
	}

	sim.Run()
	if cfg.EventTime {
		// End of stream: the event queue is drained, so nothing is in
		// flight — flush every remaining open window bottom-up with direct
		// delivery (there are no links left to ride), then sweep the root.
		// This is the virtual-time analogue of the live session's
		// end-of-stream watermark cascade at Close.
		for l := 0; l < rootLayer; l++ {
			for _, sn := range layers[l] {
				closed := sn.ew.advance(eosWatermark)
				if sn.down(sim.Now()) {
					continue
				}
				for _, cw := range closed {
					for _, b := range cw.theta {
						if sn.parent.isRoot {
							res.RootObserved += int64(len(b.Items))
							ingestAtRoot(b, mq.Watermark{From: sn.id, At: eosWatermark})
						} else {
							sn.parent.ew.ingest(b)
						}
					}
				}
			}
		}
		closeRootEvent(sim.Now(), eosWatermark)
		res.LateDropped = late.items.Load()
		res.LateDroppedInput = late.input.load()
	}
	res.Elapsed = sim.Now().Sub(epoch)
	return res, nil
}
