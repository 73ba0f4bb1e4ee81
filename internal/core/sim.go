package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/netsim"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
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

// SimConfig describes one simulated experiment: the engine's config, run in
// virtual time, plus what only virtual time has. Source is required.
//
// RunSim always runs event time (EventTime on, Window = Spec.Window) with
// neither backpressure nor pacing (MaxIngestLag < 0, SourceRate 0): both wait
// on wall-clock timers the simulator's one thread cannot run. It ignores Bus,
// Items, DrainTimeout and Checkpoint. RootWork models the saturated
// datacenter: a root member does not spin on it — each record reaching the
// root instead queues behind one server for RootWork per item. Partitions,
// RootShards and LayerShards size the groups as they do live, and every
// member sends over a link of its own.
type SimConfig struct {
	LiveConfig
	// Duration is how long sources generate. At its end every source signs
	// off with end-of-stream heartbeats, and the run lasts until the close
	// cascade they start has reached the root.
	Duration time.Duration
	// ChunksPerWindow is the source send granularity (default 8): a source
	// pushes what it generated every Spec.Window/ChunksPerWindow, each chunk
	// at its end.
	ChunksPerWindow int
	// Streaming makes edge nodes forward immediately instead of buffering
	// event windows: each arriving batch is sampled and shipped on the
	// spot. This models the SRS and native baselines, which need no window
	// at the edge layers (the Fig. 9 contrast) — only the root's event
	// windows remain. Reservoir-based strategies need Streaming=false.
	Streaming bool
	// Failures optionally crash nodes mid-run: every member of a failed
	// node drops what it sends while the failure holds.
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

// SimResult is the engine's result of a simulated run plus the traffic its
// links carried. Elapsed spans the first push to the last root-side
// processing, in virtual time.
type SimResult struct {
	LiveResult
	// LayerBytes[l] is the total bytes carried by the links into layer l.
	LayerBytes []int64
	// LayerMessages[l] counts link-level messages into layer l.
	LayerMessages []int64
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
		exact = r.TruthSum
	case query.Count:
		exact = float64(r.Produced)
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
	ErrNoSourceFunc = errors.New("core: LiveConfig.Source is required")
	ErrNoSampler    = errors.New("core: LiveConfig.NewSampler is required")
	ErrNoCost       = errors.New("core: LiveConfig.Cost is required")
	ErrNoDuration   = errors.New("core: SimConfig.Duration must be positive")
)

func nodeSeed(layer, node int, seed uint64) uint64 {
	return seed ^ (uint64(layer+1) << 32) ^ uint64(node+1)
}

func xrandFor(layer, node int, seed uint64) *xrand.Rand {
	return xrand.New(nodeSeed(layer, node, seed))
}

// RunSim executes one experiment and returns its measurements. It opens the
// engine the live sessions run — every edge layer, the root and the source
// valves: the same members, root close and emit path — in virtual time
// (LiveConfig.sim), on one thread with no goroutine, over a bus whose every
// send crosses a netsim link (impairBus). Each source pushes what it generated
// through its slot's valve once a chunk; each delivery steps the runtimes
// consuming its topic, and every runtime's deadline is one armed simulator
// event (simLoop). The run ends when the event queue is empty: after Duration
// the valves' end-of-stream heartbeats cascade up the tree and close every
// window that still holds data.
func RunSim(cfg SimConfig) (*SimResult, error) {
	sim := vclock.NewSim(simStart)
	live := cfg.LiveConfig
	live.Window = live.Spec.Window
	live.EventTime = true
	live.MaxIngestLag = -1
	live.SourceRate = 0
	live.Checkpoint = nil
	live.RootWork = 0 // the bus queues the root's input instead (impairBus.arrive)
	live.sim = sim
	live.streaming = cfg.Streaming
	lcfg, plan, err := compileLive(live)
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
	}
	mem := transport.NewMem()
	defer mem.Close()
	bus := newImpairBus(mem, sim, &cfg, plan, res)
	lcfg.Bus = bus
	e, err := openEngine(context.Background(), lcfg, plan, everyTier(spec), false, nil)
	if err != nil {
		return nil, err
	}
	d := &simLoop{e: e, sim: sim}
	d.attach()
	bus.deliver = d.deliver

	chunk := spec.Window / time.Duration(cfg.ChunksPerWindow)
	if chunk <= 0 {
		chunk = spec.Window
	}
	end := simStart.Add(cfg.Duration)
	for s := range plan.Sources {
		in, err := e.ingester(s)
		if err != nil {
			return nil, err
		}
		gen := cfg.Source(s)
		generate := gen.Generate
		if g, ok := gen.(*workload.Generator); ok {
			// The valve has encoded a chunk's items by the time Push returns,
			// so one scratch slice serves every tick of the slot.
			var scratch []stream.Item
			generate = func(from time.Time, dt time.Duration) []stream.Item {
				scratch = g.GenerateInto(scratch[:0], from, dt)
				return scratch
			}
		}
		var tick func()
		tick = func() {
			now := sim.Now()
			// Nothing stops admitting before the last tick, and the bus's
			// sends cannot fail: the push lands.
			_ = in.Push(generate(now.Add(-chunk), chunk)...)
			if now.Before(end) {
				sim.After(chunk, tick)
			} else {
				in.sendEOS()
			}
		}
		sim.At(simStart.Add(chunk), tick)
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
	e.shutdown(nil)
	res.LiveResult = *e.res
	return res, nil
}

// simStart is the virtual instant every simulated run starts at.
var simStart = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

// simLoop runs a driven engine on its simulator's one thread, doing what
// the pumps do live: when the bus delivers to a topic it steps the runtimes
// consuming it, and it keeps one event armed at each runtime's deadline.
type simLoop struct {
	e     *engine
	sim   *vclock.Sim
	pumps map[string][]*simPump // topic → the runtimes consuming it
	edges []*simPump            // the edge members, top layer first
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

// deliver steps every runtime consuming topic, which a record just reached.
func (d *simLoop) deliver(topic string) {
	for _, p := range d.pumps[topic] {
		d.step(p)
	}
}

// step runs one cycle of p's runtime and arms its deadline.
func (d *simLoop) step(p *simPump) {
	p.due.set(d.sim, p.rt.Step(), func() { d.step(p) })
}

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
// behind RootWork per item. The control topic has no link: it lands at the send
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
	// With RootWork: the instant the root's server frees up, and the table
	// its queue reads record sizes with.
	rootBusy time.Time
	counts   *stream.SourceTable
	one      [1]transport.Record // land's scratch
}

type simLink struct {
	*netsim.Link
	layer int       // the layer the link feeds: its LayerBytes index
	node  *NodeDesc // the sending node, nil for a source
}

// newImpairBus wraps mem with a link from every sender of plan's tree — each
// member of every edge group, and each source valve — to its parent topic,
// salting each link's jitter and loss seeds by its place in creation order:
// member uplinks top layer first, then the sources'.
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
			for shard := 0; shard < desc.Shards; shard++ {
				add(memberID(*desc, shard), desc.ParentTopic, desc.ParentLayer, desc)
			}
		}
	}
	for s, src := range plan.Sources {
		add(sourceFrom(s), src.Topic, 0, nil)
	}
	return b
}

// NewProducer implements transport.Bus: the bus is its one producer, whose
// sends cross links.
func (b *impairBus) NewProducer() transport.Producer { return b }

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
	// The sender's block is its own again when the send returns: the link
	// carries a copy of what it holds in flight.
	rec.Key, rec.Value = bytes.Clone(rec.Key), bytes.Clone(rec.Value)
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

// arrive lands a record its link delivered — behind a server that takes
// RootWork per item when it reached the root, so a saturated root queues.
func (b *impairBus) arrive(topic string, partition int, rec transport.Record) {
	if topic != b.root || b.cfg.RootWork <= 0 {
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
	b.rootBusy = start.Add(time.Duration(h.Count) * b.cfg.RootWork)
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
