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
	"github.com/approxiot/approxiot/internal/streams"
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
	// Duration is how long sources generate. At its end every source signs
	// off with end-of-stream heartbeats, and the run lasts until the close
	// cascade they start has reached the root.
	Duration time.Duration
	// RootServiceRate is the datacenter's processing capacity in
	// items/second (0 = infinite). The saturation experiments set this.
	RootServiceRate float64
	// ChunksPerWindow is the source send granularity (default 8): a source
	// ships what it generated every Spec.Window/ChunksPerWindow, each chunk
	// at its end.
	ChunksPerWindow int
	// Queries lists the aggregates the root runs per window (default SUM).
	Queries []query.Kind
	// Slide, when ≥ 2, composes sliding-window estimates from the last
	// Slide tumbling panes at the root (pane composition): each reported
	// window additionally carries WindowResult.Sliding for the additive
	// query kinds (SUM/COUNT), with variances added across panes.
	Slide int
	// Streaming makes edge nodes forward immediately instead of buffering
	// event windows: each arriving batch is sampled and shipped on the
	// spot. This models the SRS and native baselines, which need no window
	// at the edge layers (the Fig. 9 contrast) — only the root's event
	// windows remain. Reservoir-based strategies need Streaming=false.
	Streaming bool
	// AllowedLateness is how far event time may run behind the watermark
	// before a window closes (see LiveConfig.AllowedLateness).
	AllowedLateness time.Duration
	// IdleTimeout bounds how long a silent sub-stream can hold the
	// watermark back, in virtual time (default 4×Spec.Window, raised to
	// AllowedLateness if that is larger; negative disables the exclusion).
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
	// uniform ± amount (0 = none). Links stay FIFO: jitter varies each
	// record's latency, never its order on the link.
	LinkJitter time.Duration
	// LinkLoss drops each link message independently with this
	// probability (0 = lossless). Lost batches are simply gone — the
	// estimate degrades but the pipeline keeps running. End-of-stream
	// heartbeats are exempt, so loss cannot strand the final close.
	LinkLoss float64

	// onSend, a test hook, observes every record put on a link: the layer
	// the link feeds and the virtual send instant.
	onSend func(layer int, at time.Time)
}

// SimResult is everything a simulated run measured.
type SimResult struct {
	// Windows holds every non-empty root window result in event-time order.
	Windows []WindowResult
	// Latency is the end-to-end item latency distribution (the source's
	// virtual send → root-side processing), over the items that reached
	// the root — the live runner's measure, taken by the same root member.
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
	// LateDropped counts items that arrived past the lateness horizon:
	// their window had already closed at the node that would have buffered
	// them (counted once, at the first node that rejects them).
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
	// Elapsed is the simulated time covered: Duration plus the close
	// cascade.
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
	ErrNoSourceFunc = errors.New("core: SimConfig.Source is required")
	ErrNoSampler    = errors.New("core: SimConfig.NewSampler is required")
	ErrNoCost       = errors.New("core: SimConfig.Cost is required")
	ErrNoDuration   = errors.New("core: SimConfig.Duration must be positive")
)

func nodeSeed(layer, node int, seed uint64) uint64 {
	return seed ^ (uint64(layer+1) << 32) ^ uint64(node+1)
}

func xrandFor(layer, node int, seed uint64) *xrand.Rand {
	return xrand.New(nodeSeed(layer, node, seed))
}

// RunSim executes one experiment and returns its measurements. It drives the
// members the live engine runs — a samplingProcessor per edge node (the
// forwarding member with Streaming) and a rootProcessor at the root, built
// by the engine's memberKit constructors — on one thread in virtual time:
// sources and members exchange wire-encoded records over netsim links, every
// member's deadline is one armed simulator event, and the root closes its
// windows through rootMerge. The run ends when the event queue is empty:
// after Duration the sources' end-of-stream heartbeats cascade up the tree
// and close every window that still holds data.
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
	cfg.AllowedLateness = max(cfg.AllowedLateness, 0)
	cfg.IdleTimeout = trackerIdle(cfg.IdleTimeout, plan.Spec.Window, cfg.AllowedLateness)
	for _, f := range cfg.Failures {
		if f.Layer < 0 || f.Layer >= len(plan.Layers) || f.Node < 0 || f.Node >= len(plan.Layers[f.Layer]) {
			return nil, fmt.Errorf("core: failure targets unknown node (%d,%d)", f.Layer, f.Node)
		}
	}

	spec := plan.Spec
	r := &simRun{
		cfg: cfg,
		sim: vclock.NewSim(simStart),
		kit: memberKit{plan: plan, lateness: cfg.AllowedLateness, idle: cfg.IdleTimeout},
		res: &SimResult{
			Latency:       metrics.NewHistogram(),
			LayerBytes:    make([]int64, len(spec.Layers)),
			LayerMessages: make([]int64, len(spec.Layers)),
			TruthSum:      make(map[stream.SourceID]float64),
			TruthCount:    make(map[stream.SourceID]int64),
		},
		eval:    query.NewEngine(query.WithConfidence(cfg.Confidence)),
		sliding: newSlidingState(cfg.Slide, spec.Window, cfg.Confidence, plan.Queries),
		end:     simStart.Add(cfg.Duration),
	}

	// Members top-down, so every uplink knows its parent's delivery.
	rootLayer := plan.RootLayer()
	deliver := make([][]func(streams.Message), len(spec.Layers))
	r.roots = []*rootProcessor{r.kit.newRoot(0, func() *Node { return plan.NewRootShard(0) }, r.res.Latency, r.nudge, simStart)}
	r.root = &simMember{sim: r.sim, proc: r.roots[0], deadline: r.roots[0].nextAging, fire: r.closeRoot}
	_ = r.roots[0].Init(&simContext{r: r})
	deliver[rootLayer] = []func(streams.Message){r.deliverRoot}
	for l := rootLayer - 1; l >= 0; l-- {
		for i := range plan.Layers[l] {
			desc := &plan.Layers[l][i]
			ctx := r.uplink(l+1, deliver[desc.ParentLayer][desc.ParentIndex])
			ctx.node = desc
			deliver[l] = append(deliver[l], r.edge(*desc, ctx).deliver)
		}
	}
	chunk := spec.Window / time.Duration(cfg.ChunksPerWindow)
	if chunk <= 0 {
		chunk = spec.Window
	}
	for s, src := range plan.Sources {
		r.source(s, cfg.Source(s), chunk, r.uplink(0, deliver[0][src.ParentIndex]))
	}
	// The sources' stream ends at Duration: keepalives go quiet, exactly
	// as a live drain quiesces them, and the end-of-stream records carry
	// every promise that still matters.
	r.sim.At(r.end, func() {
		r.kit.quiesce.Store(true)
		for _, m := range r.edges {
			m.arm()
		}
	})

	r.sim.Run()
	r.res.RootObserved = r.kit.rootProcessed.Load()
	r.res.LateDropped = r.kit.late.items.Load()
	r.res.LateDroppedInput = r.kit.late.input.load()
	r.res.Elapsed = r.sim.Now().Sub(simStart)
	return r.res, nil
}

// simStart is the virtual instant every simulated run starts at.
var simStart = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

// simRun is one RunSim execution: the virtual clock, the members it drives
// and the result it fills.
type simRun struct {
	cfg    SimConfig
	sim    *vclock.Sim
	kit    memberKit
	res    *SimResult
	eval   *query.Engine
	end    time.Time // the sources' end of stream
	nLinks uint64    // links made so far: salts each link's seeds

	edges   []*simMember
	roots   []*rootProcessor // the root member, as rootMerge takes it
	root    *simMember
	merge   rootMerge
	sliding *slidingState
	// closing marks a root close scheduled at the current instant, which
	// every further nudge before it runs joins.
	closing bool
	// With RootServiceRate: the instant the root's server frees up, and the
	// table its queue reads record sizes with.
	rootBusy time.Time
	counts   *stream.SourceTable
}

// uplink builds the context of a member or source that sends into layer,
// delivering there through to: a new link of the layer's WAN segment. Every
// link is FIFO — watermarks ride the data, and one must never overtake the
// records it vouches for.
func (r *simRun) uplink(layer int, to func(streams.Message)) *simContext {
	r.nLinks++
	ls := r.kit.plan.Spec.Layers[layer]
	opts := []netsim.LinkOption{
		netsim.WithRTT(ls.LinkRTT),
		netsim.WithBandwidth(ls.LinkBandwidth),
		netsim.WithFIFO(),
	}
	if r.cfg.LinkJitter > 0 {
		opts = append(opts, netsim.WithJitter(r.cfg.LinkJitter, r.cfg.Seed^r.nLinks))
	}
	if r.cfg.LinkLoss > 0 {
		opts = append(opts, netsim.WithLoss(r.cfg.LinkLoss, r.cfg.Seed^(r.nLinks<<16)))
	}
	return &simContext{r: r, link: netsim.NewLink(r.sim, opts...), layer: layer, to: to}
}

// down reports whether a Failure holds node down at instant t.
func (r *simRun) down(node *NodeDesc, t time.Time) bool {
	if node == nil {
		return false // sources do not fail
	}
	for _, f := range r.cfg.Failures {
		if f.Layer == node.Layer && f.Node == node.Index &&
			!t.Before(simStart.Add(f.At)) && t.Before(simStart.Add(f.At+f.For)) {
			return true
		}
	}
	return false
}

// edge builds and starts the member of edge node desc, forwarding through
// ctx: the live sampling member, or the forwarding member with Streaming.
func (r *simRun) edge(desc NodeDesc, ctx *simContext) *simMember {
	mk := func() *Node { return r.kit.plan.NewNodeShard(desc, 0) }
	if r.cfg.Streaming {
		strata := stream.NewSourceTable()
		p := &forwardingProcessor{id: desc.ID, node: mk(), wt: r.kit.newTracker(desc, strata, simStart)}
		_ = p.Init(ctx)
		return &simMember{sim: r.sim, proc: p}
	}
	p := r.kit.newSampling(desc, 0, mk, simStart)
	p.bwc = &metrics.BandwidthCounter{}
	_ = p.Init(ctx)
	m := &simMember{sim: r.sim, proc: p, deadline: p.Deadline, fire: func(now time.Time) {
		// As the runtime's pump: punctuate only once the deadline read now
		// has passed.
		if due := p.Deadline(now); !due.IsZero() && !now.Before(due) {
			p.Punctuate(now)
		}
	}}
	r.edges = append(r.edges, m)
	return m
}

// source starts source s: every chunk it ships what gen generated over the
// chunk just ended — one record per sub-stream, each item stamped with the
// send as its publish instant and the record with the sub-stream's highest
// event timestamp so far as its watermark, as a live Ingester valve does —
// and at the end of stream it signs off every sub-stream it sent.
func (r *simRun) source(s int, gen workload.Source, chunk time.Duration, ctx *simContext) {
	from := sourceFrom(s)
	marks := make(map[stream.SourceID]time.Time)
	var enc batchEncoder // a fresh block per send: the link holds the records
	var tick func()
	tick = func() {
		now := r.sim.Now()
		items := gen.Generate(now.Add(-chunk), chunk)
		r.res.Generated += int64(len(items))
		pub := now.UnixNano()
		for lo := 0; lo < len(items); {
			src, hi := items[lo].Source, lo
			mark := marks[src]
			for ; hi < len(items) && items[hi].Source == src; hi++ {
				it := &items[hi]
				it.Pub = pub
				r.res.TruthSum[src] += it.Value
				r.res.TruthCount[src]++
				if it.Ts.After(mark) {
					mark = it.Ts
				}
			}
			marks[src] = mark
			enc.add(stream.Batch{Source: src, Weight: 1, Items: items[lo:hi]}, mq.Watermark{From: from, At: mark})
			lo = hi
		}
		if now.Before(r.end) {
			r.sim.After(chunk, tick)
		} else {
			for _, src := range eosSources(marks, s) {
				enc.add(heartbeat(src), mq.Watermark{From: from, At: eosWatermark})
			}
		}
		ctx.ForwardBatch(enc.records(nil))
		enc.reset()
	}
	r.sim.At(simStart.Add(chunk), tick)
}

// deliverRoot hands a record that reached the root to its member — behind a
// server with a fixed per-item cost when RootServiceRate is set, so a
// saturated root queues.
func (r *simRun) deliverRoot(msg streams.Message) {
	if r.cfg.RootServiceRate <= 0 {
		r.root.deliver(msg)
		return
	}
	if r.counts == nil {
		r.counts = stream.NewSourceTable()
	}
	h, _ := stream.ParseHeader(msg.Value, r.counts)
	start := r.sim.Now()
	if r.rootBusy.After(start) {
		start = r.rootBusy
	}
	r.rootBusy = start.Add(time.Duration(float64(h.Count) / r.cfg.RootServiceRate * float64(time.Second)))
	r.sim.At(r.rootBusy, func() { r.root.deliver(msg) })
}

// nudge is the root member's wake, the sweeper's in the engine: a close at
// the current instant, after whatever else is due now.
func (r *simRun) nudge() {
	if r.closing {
		return
	}
	r.closing = true
	r.sim.At(r.sim.Now(), func() {
		r.closing = false
		r.closeRoot(r.sim.Now())
		r.root.arm()
	})
}

// closeRoot emits every root window the merged watermark makes due, as the
// engine's sweep does: the result joins the run's, the feedback loop steps
// (in simulation the controller is shared memory, so every node's next window
// close reads the new fraction), and OnWindow observes it.
func (r *simRun) closeRoot(now time.Time) {
	wm := mergedWatermark(r.roots, now)
	if wm.IsZero() {
		return
	}
	for _, win := range r.merge.close(r.roots, wm, now, r.eval, r.kit.plan) {
		if r.sliding != nil {
			r.sliding.observe(&win)
		}
		r.res.Windows = append(r.res.Windows, win)
		if ctl := r.cfg.Feedback; ctl != nil {
			r.res.Fractions = append(r.res.Fractions, ctl.Observe(win.Result(feedbackKind(r.kit.plan.Queries))))
		}
		if r.cfg.OnWindow != nil {
			r.cfg.OnWindow(win)
		}
	}
}

// simMember pumps one member in virtual time, the simulator's twin of a
// streams.Runtime pump: a delivery is one ProcessBatch of one message, and
// the member's earliest deadline is one armed simulator event, read again
// after every delivery and every firing.
type simMember struct {
	sim      *vclock.Sim
	proc     streams.Processor
	deadline func(now time.Time) time.Time // nil: the member has none
	fire     func(now time.Time)
	timer    vclock.Timer // the armed event, nil when none
	armedAt  time.Time
	in       []streams.Message
}

func (m *simMember) deliver(msg streams.Message) {
	m.in = append(m.in[:0], msg)
	if err := m.proc.ProcessBatch(m.in); err != nil {
		// Every record was encoded by the simulator itself.
		panic(fmt.Sprintf("core: simulated member failed: %v", err))
	}
	m.in[0] = streams.Message{}
	m.arm()
}

// arm keeps one event armed at the member's current deadline, cancelling the
// one armed at an earlier reading.
func (m *simMember) arm() {
	if m.deadline == nil {
		return
	}
	due := m.deadline(m.sim.Now())
	if m.timer != nil {
		if due.Equal(m.armedAt) {
			return
		}
		m.timer.Stop()
		m.timer = nil
	}
	if due.IsZero() {
		return
	}
	m.armedAt = due
	m.timer = m.sim.At(due, func() {
		m.timer = nil
		m.fire(m.sim.Now())
		m.arm()
	})
}

// simContext is one member's (or source's) streams.ProcessorContext in
// virtual time: Now is the simulator's clock, and every message forwarded
// rides the member's uplink to its parent. It is not a streams.OffsetReader,
// so the members' lane floors stay off — every link is a single FIFO lane.
type simContext struct {
	r     *simRun
	node  *NodeDesc    // the sending member's node; nil for a source or the root
	link  *netsim.Link // nil at the root, which forwards nothing
	layer int          // the layer the link feeds: its LayerBytes index
	to    func(streams.Message)
}

func (c *simContext) Now() time.Time { return c.r.sim.Now() }

func (c *simContext) Forward(msg streams.Message) { c.send(msg) }

func (c *simContext) ForwardBatch(msgs []streams.Message) {
	for _, msg := range msgs {
		c.send(msg)
	}
}

// send puts one record on the link — unless a Failure holds the sender down,
// which drops it — and counts its bytes into the layer's traffic.
// End-of-stream heartbeats are exempt from LinkLoss: the link still draws
// their fate, but a lost one is delivered anyway, at the instant it would
// have arrived, so no loss can strand the windows it closes.
func (c *simContext) send(msg streams.Message) {
	now := c.r.sim.Now()
	if c.r.down(c.node, now) {
		return
	}
	c.r.res.LayerBytes[c.layer] += int64(len(msg.Value))
	c.r.res.LayerMessages[c.layer]++
	if c.r.cfg.onSend != nil {
		c.r.cfg.onSend(c.layer, now)
	}
	deliver := func() { c.to(msg) }
	lost := c.link.MessagesLost()
	at := c.link.Send(len(msg.Value), deliver)
	if c.link.MessagesLost() > lost && !msg.Watermark.At.Before(eosHorizon) {
		c.r.sim.At(at, deliver)
	}
}

// forwardingProcessor is the streaming edge member of the SRS and native
// baselines (SimConfig.Streaming): no edge window holds anything back. Each
// delivered record is sampled on its own and what survives goes straight on,
// stamped with the member's inbound watermark — nothing buffered here can
// contradict it. A record that leaves nothing forwards a heartbeat instead,
// so the parent's watermark keeps climbing.
type forwardingProcessor struct {
	id   string
	node *Node
	wt   *watermarkTracker
	ctx  streams.ProcessorContext
	enc  batchEncoder // a fresh block per forward: the link holds the records
}

var _ streams.Processor = (*forwardingProcessor)(nil)

func (p *forwardingProcessor) Init(ctx streams.ProcessorContext) error {
	p.ctx = ctx
	return nil
}

func (p *forwardingProcessor) Close() error { return nil }

func (p *forwardingProcessor) ProcessBatch(msgs []streams.Message) error {
	for _, msg := range msgs {
		if err := p.step(msg); err != nil {
			return err
		}
	}
	return nil
}

// step samples one delivered record and forwards what survives.
func (p *forwardingProcessor) step(msg streams.Message) error {
	b, err := stream.UnmarshalBatch(msg.Value)
	if err != nil {
		return err
	}
	now := p.ctx.Now()
	p.node.IngestBatch(b)
	p.wt.foldSlot(msg.Watermark, p.wt.strata.Slot(b.Source), msg.Partition, now)
	out := p.node.CloseInterval()
	if len(out) == 0 {
		out = []stream.Batch{heartbeat(b.Source)}
	}
	wm := mq.Watermark{From: p.id, At: p.wt.watermark(now)}
	for _, ob := range out {
		p.enc.add(ob, wm)
	}
	p.ctx.ForwardBatch(p.enc.records(nil))
	p.enc.reset()
	return nil
}
