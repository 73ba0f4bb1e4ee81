package core

import (
	"context"
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
	"github.com/approxiot/approxiot/internal/transport"
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
	// Cost (which may then be nil). The fractions travel the control topic
	// as they do live, landing at the instant the root publishes them, so
	// every node's next window close reads the new one. A controller is
	// stateful — use a fresh one per run.
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

// RunSim executes one experiment and returns its measurements. It opens the
// engine the live sessions run — every edge layer and the root: the same
// members, sweep and emit path — in virtual time (LiveConfig.sim), on one
// thread with no goroutine, over a bus whose every send crosses a netsim link
// (impairBus). The sources ship onto the leaf topics through that bus; each
// delivery steps the runtimes consuming its topic, and every runtime's
// deadline and the root's next sweep are one armed simulator event each
// (simLoop). The run ends when the event queue is empty: after Duration the
// sources' end-of-stream heartbeats cascade up the tree and close every window
// that still holds data.
func RunSim(cfg SimConfig) (*SimResult, error) {
	sim := vclock.NewSim(simStart)
	lcfg, plan, err := compileLive(LiveConfig{
		Spec:            cfg.Spec,
		NewSampler:      cfg.NewSampler,
		Cost:            cfg.Cost,
		Window:          cfg.Spec.Window,
		EventTime:       true,
		AllowedLateness: cfg.AllowedLateness,
		IdleTimeout:     cfg.IdleTimeout,
		Queries:         cfg.Queries,
		Slide:           cfg.Slide,
		Confidence:      cfg.Confidence,
		Seed:            cfg.Seed,
		Feedback:        cfg.Feedback,
		OnWindow:        cfg.OnWindow,
		sim:             sim,
		streaming:       cfg.Streaming,
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
	if cfg.ChunksPerWindow <= 0 {
		cfg.ChunksPerWindow = 8
	}
	for _, f := range cfg.Failures {
		if f.Layer < 0 || f.Layer >= len(plan.Layers) || f.Node < 0 || f.Node >= len(plan.Layers[f.Layer]) {
			return nil, fmt.Errorf("core: failure targets unknown node (%d,%d)", f.Layer, f.Node)
		}
	}

	spec := plan.Spec
	res := &SimResult{
		LayerBytes:    make([]int64, len(spec.Layers)),
		LayerMessages: make([]int64, len(spec.Layers)),
		TruthSum:      make(map[stream.SourceID]float64),
		TruthCount:    make(map[stream.SourceID]int64),
	}
	mem := transport.NewMem()
	defer mem.Close()
	bus := newImpairBus(mem, sim, &cfg, plan, res)
	lcfg.Bus = bus
	tier := everyTier(spec)
	tier.Ingest = false // the sources below are the simulator's own
	e, err := openEngine(context.Background(), lcfg, plan, tier, false, nil)
	if err != nil {
		return nil, err
	}
	d := e.loop
	d.attach()
	bus.deliver = d.deliver

	chunk := spec.Window / time.Duration(cfg.ChunksPerWindow)
	if chunk <= 0 {
		chunk = spec.Window
	}
	end := simStart.Add(cfg.Duration)
	for s, src := range plan.Sources {
		startSource(sim, bus.NewProducer(), src.Topic, s, cfg.Source(s), chunk, end, res)
	}
	// The sources' stream ends at Duration: keepalives go quiet, exactly as a
	// live drain quiesces them, and the end-of-stream records carry every
	// promise that still matters. Quiesce moves every edge member's deadline.
	sim.At(end, func() {
		e.quiesce.Store(true)
		for _, p := range d.edges {
			d.step(p)
		}
	})

	sim.Run()
	e.stopAll()
	e.finalize(sim.Now())
	res.Windows = e.res.Windows
	res.Fractions = e.res.Fractions
	res.Latency = e.res.Latency
	res.RootObserved = e.res.RootProcessed
	res.LateDropped = e.res.LateDropped
	res.LateDroppedInput = e.res.LateDroppedInput
	res.Elapsed = e.res.Elapsed
	return res, nil
}

// simStart is the virtual instant every simulated run starts at.
var simStart = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

// startSource starts source s: every chunk it ships what gen generated over
// the chunk just ended onto topic — one record per sub-stream, each item
// stamped with the send as its publish instant and the record with the
// sub-stream's highest event timestamp so far as its watermark, as a live
// Ingester valve does — and at end it signs off every sub-stream it sent.
// Generation and ground truth are counted into res.
func startSource(sim *vclock.Sim, prod transport.Producer, topic string, s int, gen workload.Source, chunk time.Duration, end time.Time, res *SimResult) {
	from := sourceFrom(s)
	marks := make(map[stream.SourceID]time.Time)
	var enc batchEncoder // a fresh block per send: the links hold the records
	var tick func()
	tick = func() {
		now := sim.Now()
		items := gen.Generate(now.Add(-chunk), chunk)
		res.Generated += int64(len(items))
		pub := now.UnixNano()
		for lo := 0; lo < len(items); {
			src, hi := items[lo].Source, lo
			mark := marks[src]
			for ; hi < len(items) && items[hi].Source == src; hi++ {
				it := &items[hi]
				it.Pub = pub
				res.TruthSum[src] += it.Value
				res.TruthCount[src]++
				if it.Ts.After(mark) {
					mark = it.Ts
				}
			}
			marks[src] = mark
			enc.add(stream.Batch{Source: src, Weight: 1, Items: items[lo:hi]}, mq.Watermark{From: from, At: mark})
			lo = hi
		}
		if now.Before(end) {
			sim.After(chunk, tick)
		} else {
			for _, src := range eosSources(marks, s) {
				enc.add(heartbeat(src), mq.Watermark{From: from, At: eosWatermark})
			}
		}
		_ = prod.SendBatch(topic, enc.records(nil))
		enc.reset()
	}
	sim.At(simStart.Add(chunk), tick)
}

// simLoop runs a driven engine on its simulator's one thread, doing what
// the pumps and the sweeper goroutine do live: when the bus delivers to a
// topic it steps the runtimes consuming it, it keeps one event armed at each
// runtime's deadline, and it sweeps the root when a root member nudges and at
// engine.nextSweep.
type simLoop struct {
	e     *engine
	sim   *vclock.Sim
	pumps map[string][]*simPump // topic → the runtimes consuming it
	edges []*simPump            // the edge members, top layer first
	// sweeping marks a sweep scheduled at the current instant, which every
	// nudge before it runs joins.
	sweeping bool
	next     alarm // the sweep at engine.nextSweep
}

type simPump struct {
	rt  *streams.Runtime
	due alarm
}

// attach registers every member runtime of the engine under its source topic.
func (d *simLoop) attach() {
	d.pumps = make(map[string][]*simPump)
	for l := d.e.plan.RootLayer(); l >= 0; l-- {
		for _, desc := range d.e.plan.Layers[l] {
			for _, m := range d.e.groupByID[desc.ID].live() {
				p := &simPump{rt: m.rt}
				d.pumps[desc.Topic] = append(d.pumps[desc.Topic], p)
				if l < d.e.plan.RootLayer() {
					d.edges = append(d.edges, p)
				}
			}
		}
	}
}

// deliver steps every runtime consuming topic, which a record just reached;
// a root delivery moves the next sweep.
func (d *simLoop) deliver(topic string) {
	for _, p := range d.pumps[topic] {
		d.step(p)
	}
	if topic == d.e.plan.Root().Topic {
		d.armSweep()
	}
}

// step runs one cycle of p's runtime and arms its deadline.
func (d *simLoop) step(p *simPump) {
	p.due.set(d.sim, p.rt.Step(), func() { d.step(p) })
}

// nudge is the root members' wake: a sweep at the current instant, after
// whatever else is due now.
func (d *simLoop) nudge() {
	if !d.sweeping {
		d.sweeping = true
		d.sim.At(d.sim.Now(), func() { d.sweeping = false; d.sweep() })
	}
}

func (d *simLoop) sweep() {
	d.e.sweep(d.sim.Now())
	d.armSweep()
}

func (d *simLoop) armSweep() { d.next.set(d.sim, d.e.nextSweep(d.sim.Now()), d.sweep) }

// alarm keeps one event armed at a deadline read again after everything that
// may move it: an unchanged reading keeps the event, another replaces it, and
// zero arms none.
type alarm struct {
	timer *vclock.Timer // nil when none is armed
	at    time.Time
}

func (a *alarm) set(sim *vclock.Sim, due time.Time, fire func()) {
	if a.timer != nil {
		if due.Equal(a.at) {
			return
		}
		a.timer.Stop()
		a.timer = nil
	}
	if !due.IsZero() {
		a.at = due
		a.timer = sim.At(due, func() { a.timer = nil; fire() })
	}
}

// impairBus is the simulator's network around the in-memory broker the
// engine's consumers read. Every record a producer sends crosses the FIFO
// netsim link from its sender — its Watermark.From — to the destination
// topic, with the RTT and bandwidth of the layer the topic feeds plus
// SimConfig's jitter and loss, and lands in the broker at its delivery
// instant, where the loop steps the topic's consumers. Links hold the
// records, so the bus retains what is sent. On the way the bus counts each
// layer's traffic, drops what a node sends while a Failure holds it down,
// spares end-of-stream heartbeats from loss, and queues root deliveries
// behind RootServiceRate. The control topic has no link: it lands at the send
// instant, so every member's next window close reads the fraction the root
// just published.
type impairBus struct {
	transport.Bus
	sim     *vclock.Sim
	cfg     *SimConfig
	res     *SimResult             // LayerBytes, LayerMessages
	inner   transport.Producer     // lands records, stamped in virtual time
	links   map[[2]string]*simLink // (sender, topic) → its link
	root    string                 // the root topic
	deliver func(topic string)     // the loop: a record reached topic
	// With RootServiceRate: the instant the root's server frees up, and the
	// table its queue reads record sizes with.
	rootBusy time.Time
	counts   *stream.SourceTable
	one      [1]transport.Record // land's scratch
}

type simLink struct {
	*netsim.Link
	layer int       // the layer the link feeds: its LayerBytes index
	node  *NodeDesc // the sending node, nil for a source
}

// newImpairBus wraps mem with a link from every sender of plan's tree to its
// parent topic, salting each link's jitter and loss seeds by its place in
// creation order: member uplinks top layer first, then the sources'.
func newImpairBus(mem *transport.Mem, sim *vclock.Sim, cfg *SimConfig, plan *Plan, res *SimResult) *impairBus {
	b := &impairBus{
		Bus:   mem,
		sim:   sim,
		cfg:   cfg,
		res:   res,
		inner: mq.NewProducer(mem.Broker(), mq.WithNow(sim.Now)),
		links: make(map[[2]string]*simLink),
		root:  plan.Root().Topic,
	}
	add := func(from, topic string, layer int, node *NodeDesc) {
		salt := uint64(len(b.links) + 1)
		ls := plan.Spec.Layers[layer]
		opts := []netsim.LinkOption{netsim.WithRTT(ls.LinkRTT), netsim.WithBandwidth(ls.LinkBandwidth), netsim.WithFIFO()}
		if cfg.LinkJitter > 0 {
			opts = append(opts, netsim.WithJitter(cfg.LinkJitter, cfg.Seed^salt))
		}
		if cfg.LinkLoss > 0 {
			opts = append(opts, netsim.WithLoss(cfg.LinkLoss, cfg.Seed^(salt<<16)))
		}
		b.links[[2]string{from, topic}] = &simLink{netsim.NewLink(sim, opts...), layer, node}
	}
	for l := plan.RootLayer() - 1; l >= 0; l-- {
		for i := range plan.Layers[l] {
			desc := &plan.Layers[l][i]
			add(desc.ID, desc.ParentTopic, desc.ParentLayer, desc)
		}
	}
	for s, src := range plan.Sources {
		add(sourceFrom(s), src.Topic, 0, nil)
	}
	return b
}

// CreateTopic implements transport.Bus with a short retention: the loop
// consumes every record the instant it lands, so the broker need keep few
// consumed ones — the engine's live figure would have every partition
// allocate a log for thousands, once per run.
func (b *impairBus) CreateTopic(name string, partitions, _ int) error {
	return b.Bus.CreateTopic(name, partitions, 64)
}

// NewProducer implements transport.Bus: the bus is its one producer, whose
// sends cross links.
func (b *impairBus) NewProducer() transport.Producer { return b }

// RetainsSent implements transport.Bus: a link holds a record until it lands.
func (b *impairBus) RetainsSent() bool { return true }

// SendBatch implements transport.Producer.
func (b *impairBus) SendBatch(topic string, recs []transport.Record) error {
	return b.SendTo(topic, -1, recs)
}

// SendTo implements transport.Producer: recs go to one partition of topic,
// or with partition -1 to the one each record's key picks when it lands.
func (b *impairBus) SendTo(topic string, partition int, recs []transport.Record) error {
	for _, rec := range recs {
		b.send(topic, partition, rec)
	}
	return nil
}

// send puts one record on its link, counted into the traffic of the layer
// the link feeds — unless a Failure holds the sender down, which drops it.
// End-of-stream heartbeats are exempt from LinkLoss: the link still draws
// their fate, but a lost one is delivered anyway, at the instant it would have
// arrived, so no loss can strand the windows it closes.
func (b *impairBus) send(topic string, partition int, rec transport.Record) {
	l := b.links[[2]string{rec.Watermark.From, topic}]
	if l == nil {
		b.land(topic, partition, rec) // the control topic
		return
	}
	now := b.sim.Now()
	if l.node != nil && b.down(l.node, now) {
		return
	}
	b.res.LayerBytes[l.layer] += int64(len(rec.Value))
	b.res.LayerMessages[l.layer]++
	if b.cfg.onSend != nil {
		b.cfg.onSend(l.layer, now)
	}
	arrive := func() { b.arrive(topic, partition, rec) }
	lost := l.MessagesLost()
	at := l.Send(len(rec.Value), arrive)
	if l.MessagesLost() > lost && !rec.Watermark.At.Before(eosHorizon) {
		b.sim.At(at, arrive)
	}
}

// down reports whether a Failure holds node down at instant t.
func (b *impairBus) down(node *NodeDesc, t time.Time) bool {
	for _, f := range b.cfg.Failures {
		if f.Layer == node.Layer && f.Node == node.Index &&
			!t.Before(simStart.Add(f.At)) && t.Before(simStart.Add(f.At+f.For)) {
			return true
		}
	}
	return false
}

// arrive lands a record its link delivered — behind a server with a fixed
// per-item cost when it reached the root with RootServiceRate set, so a
// saturated root queues.
func (b *impairBus) arrive(topic string, partition int, rec transport.Record) {
	if topic != b.root || b.cfg.RootServiceRate <= 0 {
		b.land(topic, partition, rec)
		return
	}
	if b.counts == nil {
		b.counts = stream.NewSourceTable()
	}
	h, _ := stream.ParseHeader(rec.Value, b.counts)
	start := b.sim.Now()
	if b.rootBusy.After(start) {
		start = b.rootBusy
	}
	b.rootBusy = start.Add(time.Duration(float64(h.Count) / b.cfg.RootServiceRate * float64(time.Second)))
	b.sim.At(b.rootBusy, func() { b.land(topic, partition, rec) })
}

// land appends a record to the broker, which outlives the run, and tells the
// loop.
func (b *impairBus) land(topic string, partition int, rec transport.Record) {
	b.one[0] = rec
	if partition < 0 {
		_ = b.inner.SendBatch(topic, b.one[:])
	} else {
		_ = b.inner.SendTo(topic, partition, b.one[:])
	}
	b.one[0] = transport.Record{}
	b.deliver(topic)
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
	enc  batchEncoder
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
