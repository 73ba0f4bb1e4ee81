package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/checkpoint"
	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/vclock"
	"github.com/approxiot/approxiot/internal/workload"
)

// LiveConfig describes a live-mode deployment: the tree is instantiated as
// real goroutines — every compiled node runs as a consumer group of one or
// more streams.Runtime members, chained by mq topics — exactly mirroring the
// paper's Kafka/Kafka-Streams deployment (Fig. 4) scaled out the way Kafka
// Streams applications scale: by adding instances to a consumer group.
// Live mode measures compute throughput; WAN characteristics are the
// simulated mode's job.
//
// Three entry points share this config: OpenNode runs one tier of the tree
// per process, OpenLive returns a long-lived LiveSession handle running every
// tier with push ingestion, and RunLive is the batch-shaped wrapper
// (generator-fed, fixed item count, blocks until drained).
type LiveConfig struct {
	// Spec gives the tree structure (link parameters are ignored live).
	Spec topology.TreeSpec
	// Bus selects the transport backend the deployment runs over. Nil (the
	// default) gives the session a private in-memory broker, closed with the
	// session — the single-process shape every test and example uses. A
	// caller-supplied bus (e.g. a transport/tcp client dialed at a shared
	// broker daemon) is used as-is and NOT closed by the session: topic
	// creation is idempotent across clients, so several processes can open
	// sessions against the same bus and share the tree's topics.
	Bus transport.Bus
	// Source builds source node i's generator. Required by RunLive; ignored
	// by OpenLive, whose sessions are fed by pushes.
	Source func(i int) workload.Source
	// NewSampler builds each node's strategy. Required.
	NewSampler SamplerFactory
	// Cost is the budget policy shared by all nodes. Required.
	Cost CostFunction
	// Items is the total number of items to produce across all sources.
	// Required by RunLive; ignored by OpenLive.
	Items int64
	// Window is the live cadence (default 50 ms — wall time is expensive,
	// simulated seconds are not). It governs no window close: members close
	// windows inline as their watermark crosses a window's end, and the root
	// closes one as soon as the merged watermark does — members and root wake
	// on records and on their own deadlines, never on a tick. What Window
	// still sets: the window length with EventTime off; the default
	// IdleTimeout (4×Window); the drain probe (every Window/4); the
	// checkpoint cadence (one save per Window per member, with Checkpoint);
	// and the idle beat of an ingest-stamping valve (one per Window of
	// silence).
	Window time.Duration
	// EventTime selects who stamps the timestamps windows are cut by. The
	// tree always runs event-time tumbling windows: records are bucketed by
	// Item.Ts at every layer, per-source low watermarks piggyback on data
	// records up the tree, and a window closes once the watermark passes its
	// end plus AllowedLateness. Off (the default), the Ingester valves stamp
	// every item's Ts with its publish instant (and an idle valve beats the
	// current instant once a window), windows are Window long, and
	// AllowedLateness is 0: an ingest-stamped record is never late — one a
	// node's close bound has passed reopens its window, which the node closes
	// again at once. On, windows are Spec.Window long and a caller-supplied
	// Ts is the event timestamp (zero Ts defaults to the publish instant).
	EventTime bool
	// AllowedLateness is how far event time may run behind the watermark
	// before a window closes: window [s, s+W) closes once the watermark
	// reaches s+W+AllowedLateness. Records assigned to a closed window are
	// counted into LiveResult.LateDropped and dropped — never folded into
	// a closed window's exact count. Only meaningful with EventTime.
	AllowedLateness time.Duration
	// IdleTimeout bounds how long a silent sub-stream can hold the
	// watermark back: a source with no records for this long (wall clock)
	// is excluded from the watermark minimum until it speaks again. 0
	// selects the default — 4×Window, raised to AllowedLateness if that is
	// larger, so a source pausing within its promised lateness is never
	// aged out. Negative disables the exclusion
	// (a silent source then stalls event time, by request); that requires
	// single-member groups (ErrEventTimeIdleSharded otherwise).
	IdleTimeout time.Duration
	// RootWork is the artificial per-item query execution cost at the
	// datacenter, modelling the paper's saturated root (default 0).
	RootWork time.Duration
	// Queries lists the root's aggregates (default SUM).
	Queries []query.Kind
	// Slide, when ≥ 2, composes sliding-window estimates from the last
	// Slide tumbling panes at the root (pane composition): each emitted
	// window additionally carries WindowResult.Sliding for the additive
	// query kinds (SUM/COUNT), with variances added across panes so the
	// composed bounds stay rigorous. Sim and live feed identical pane
	// sequences under the same seed, so sliding estimates are covered by
	// the cross-mode equivalence suite.
	Slide int
	// Confidence selects the error-bound level of every window result
	// (default 95%). Adaptive runs steer the relative *bound* at this
	// confidence toward the controller's target, so sim and live must
	// agree on it for their trajectories to be comparable.
	Confidence stats.Confidence
	// Partitions is the partition count of every mq topic (default 1).
	// Records are keyed by SourceID, so each sub-stream maps to exactly one
	// partition and per-stratum ordering is preserved.
	Partitions int
	// RootShards sizes the root consumer group (default 1, max Partitions).
	// Each shard runs the root sampling stage over the partitions it owns;
	// shard outputs are merged at window close, and the Eq. 8 weights make
	// the merged count estimate exact regardless of the shard count.
	RootShards int
	// LayerShards sizes each edge layer's consumer groups, indexed by
	// layer (missing or zero entries default to 1, max Partitions each).
	// Every node of layer l runs as LayerShards[l] group members over its
	// input topic; each member samples the partitions it owns and forwards
	// its weighted batches independently — weight compounding needs no
	// merge barrier between members.
	LayerShards []int
	// Seed drives all samplers and generators.
	Seed uint64
	// Feedback, when set, closes the §IV-B loop on the live tree: every
	// node's budget becomes a control-plane-driven fraction starting at
	// the controller's current fraction. At each window close the root
	// observes the merged WindowResult — the first registered non-COUNT
	// query kind, since Eq. 8 makes COUNT exact and its bound
	// uninformative — and publishes the adjusted fraction as a control
	// record; every edge member drains the control topic at its next window
	// boundary (root members take the update directly at the merge), so
	// fraction changes never land mid-interval. In a process-per-tier
	// deployment every tier passes an identically built controller, and only
	// the root tier's steps; the others' members start at its initial
	// fraction and follow the control topic. Feedback takes precedence over
	// Cost (which may then be nil). A controller is stateful — use a fresh
	// one per run.
	Feedback *FeedbackController
	// SourceRate throttles each source slot to at most this many items per
	// second (0 = produce as fast as the pipeline accepts). The Ingester
	// valves apply it to pushed streams too; adaptive runs use it to
	// stretch production across enough windows for the controller to
	// converge.
	SourceRate float64
	// MaxIngestLag is the push-side backpressure high-water mark: an
	// Ingester blocks while its leaf topic's unconsumed backlog exceeds
	// this many records, so pushers cannot outrun the pipeline into
	// unbounded broker memory. 0 selects the default (8192); negative
	// disables backpressure.
	MaxIngestLag int
	// DrainTimeout bounds every drain — Close's, a node tier's Drain, and
	// RemoveEdgeNode's wait for the detached topic — before it gives up. A
	// wedged pipeline then surfaces ErrDrainTimeout (Close assembles the
	// final result anyway, with the error on Close/Err and
	// LiveResult.DrainTimedOut) instead of silently returning a result
	// missing in-flight items. 0 selects the default (2 minutes); negative
	// waits forever (context cancellation remains the only way out of a
	// wedged drain).
	DrainTimeout time.Duration
	// OnWindow, if set, observes every non-empty window result as it
	// closes, after the feedback step. It runs on the sweeper
	// goroutine — keep it fast, and never call the session's Close from
	// it (Close waits for the sweeper, so that deadlocks). Snapshot is
	// safe to call from the hook.
	OnWindow func(WindowResult)
	// Checkpoint, when set, makes every edge shard-group member durable:
	// at each punctuation flush (a window boundary, where committed
	// consumer offsets and ingested items coincide exactly) the member
	// serializes its reservoir (Ψ), carried weights, watermark chains, and
	// consumer offsets into the store under its member ID. A member
	// restarted after a crash (RestartMember, on the session hosting it)
	// loads its blob, restores state, replays the offset gap from the
	// broker's retained log, and rejoins its group without double-counting
	// or losing items. Each process keeps its own members' checkpoints in
	// its own store. Save errors are counted (LiveSnapshot.CheckpointErrors),
	// never fatal — a deployment outlives a full disk.
	Checkpoint checkpoint.Store

	// corruptRoot injects this many undecodable records into the root
	// topic before the sources start — a test hook for DecodeErrors
	// accounting (unexported; tests live in this package).
	corruptRoot int

	// recordAtATime forces the pre-batching hot path everywhere: member
	// runtimes dispatch one record per ProcessBatch call and sinks/valves
	// publish one record per broker append. The cross-mode equivalence
	// suite uses it as the semantic reference the batched path must match
	// bit for bit (unexported; tests live in this package).
	recordAtATime bool

	// sim drives the engine in virtual time (RunSim): every instant comes
	// from it, no goroutine starts, and the simulator's loop steps the
	// member runtimes and runs the sweeps (sim.go). Nil runs live.
	sim *vclock.Sim
	// streaming runs every edge member as a forwardingProcessor, which
	// samples and forwards each record as it arrives (SimConfig.Streaming).
	streaming bool
}

// LiveResult reports a live run's measurements.
type LiveResult struct {
	// Produced counts items generated and published by the sources.
	Produced int64
	// RootProcessed counts items the root aggregated (post sampling).
	RootProcessed int64
	// DecodeErrors counts data-plane records whose batch payload failed
	// to decode anywhere in the pipeline. Corrupt records are counted and
	// skipped — never silently dropped, never allowed to poison the run.
	// (Malformed broadcast control records are skipped without counting
	// here: every member reads the same record, so a shared counter would
	// report one bad record once per member.)
	DecodeErrors int64
	// LateDropped counts items that arrived past the lateness horizon: their
	// window had already closed at the node that would have buffered them,
	// so they were counted here and dropped rather than corrupting a closed
	// window's exact count. An item is counted once, at the first node that
	// rejects it. Always 0 with EventTime off (ingest-stamped records are
	// never late).
	LateDropped int64
	// LateDroppedInput is the estimated original input the late-dropped
	// records represent: a leaf drops raw weight-1 items (equal to
	// LateDropped there), while an interior node drops already-sampled
	// batches whose items each stand for Batch.Weight originals. The
	// accounting identity Σ Windows.EstimatedInput + LateDroppedInput ==
	// Produced holds in this currency at every layer.
	LateDroppedInput float64
	// DrainTimedOut reports that Close's drain deadline expired before the
	// pipeline quiesced: the result was assembled anyway, but in-flight
	// items may be missing from it. Close/Err surface the same condition
	// as ErrDrainTimeout.
	DrainTimedOut bool
	// Elapsed spans first publish to last root-side processing (to the
	// session's close on a tier without the root).
	Elapsed time.Duration
	// Throughput is Produced/Elapsed — the paper's "items processed per
	// second" with the pipeline as the bottleneck.
	Throughput float64
	// Windows holds the root's non-empty window results.
	Windows []WindowResult
	// TruthSum is the exact total of generated item values.
	TruthSum float64
	// EstimateSum totals the SUM estimates across windows.
	EstimateSum float64
	// EstimateCount totals the estimated input counts across windows.
	EstimateCount float64
	// Latency is the end-to-end item latency distribution — source publish
	// instant to root-side processing — over the items that survived
	// sampling to the root. Always populated.
	Latency *metrics.Histogram
	// Bandwidth accounts the bytes produced onto every link, keyed by the
	// destination topic name (the control topic included). Always
	// populated; produce-side accounting, so each byte counts once.
	Bandwidth *metrics.BandwidthAccount
	// Fractions is the adaptive trajectory: the controller's fraction
	// after observing each entry of Windows, in order. Nil when Feedback
	// is not configured.
	Fractions []float64
	// Nodes holds per-member lifetime telemetry keyed by member ID
	// ("edge1-3", "root-0-shard2", ...). Always populated.
	Nodes map[string]NodeTelemetry
}

// NodeTelemetry is one shard-group member's lifetime measurement.
type NodeTelemetry struct {
	// Observed counts items the member received; Emitted counts items it
	// forwarded after sampling; Intervals counts its window closes.
	Observed, Emitted, Intervals int64
	// Throughput is Observed divided by the run's Elapsed span.
	Throughput float64
	// Wakeups counts the member pump's cycles that started from a park, by
	// cause: records arrived (Data), the member's deadline passed (Deadline:
	// a keepalive, an idle source ageing out, a checkpoint save), or a Sync
	// ran (a membership barrier, the drain's wake). An idle member costs
	// its Deadline wake-ups and nothing else.
	Wakeups streams.Wakeups
}

// live-mode errors.
var (
	ErrNoItems = errors.New("core: LiveConfig.Items must be positive")
	// ErrEventTimeIdleSharded rejects a disabled idle exclusion
	// (IdleTimeout < 0) combined with multi-member consumer groups: a
	// group member only hears the producers whose record keys hash to its
	// partitions, and with aging disabled an unheard-but-expected producer
	// would hold the member's watermark at zero forever.
	ErrEventTimeIdleSharded = errors.New("core: IdleTimeout < 0 (no idle exclusion) requires single-member groups (RootShards 1, LayerShards 1)")
)

// samplingProcessor adapts the sampling nodes of one edge shard-group member
// to the streams.Processor contract: batches arrive as wire-encoded messages
// and the member's Ψ store lives in ew, one sampling Node per event window.
// Records are bucketed by event timestamp, watermarks piggybacked on
// arriving records feed wt, and windows close on watermark advance — inline
// on ProcessBatch when a record's watermark makes windows due, and at Punctuate
// when a silent source ages out of the minimum. As a streams.Punctuator it
// reports one deadline, the earliest of its time-driven duties (Deadline), so
// an idle member's pump parks until a record arrives or that instant passes.
type samplingProcessor struct {
	id         string
	decodeErrs *atomic.Int64
	pending    atomic.Int64 // items buffered in Ψ awaiting the window flush
	ctx        streams.ProcessorContext

	// bwc is the member's private produce-side byte counter for its parent
	// link (lock-free; folded into the account at read time).
	bwc *metrics.BandwidthCounter
	// enc and outMsgs are the member's outbound-hop scratch: every flush
	// queues all of its batches in enc, encodes them into one block, and
	// forwards them as one message batch (one broker append downstream).
	// See flushEmits for the buffer-ownership rule.
	enc     batchEncoder
	outMsgs []streams.Message

	// ew buckets Ψ per event window, wt tracks the member's low watermark,
	// and quiesce (session-owned) stops the punctuation keepalives once
	// shutdown starts — the end-of-stream cascade carries every promise that
	// still matters, and a steady keepalive stream would hold the drain
	// probe's idle check open forever.
	ew      *eventWindows
	wt      *watermarkTracker
	triedWM time.Time // watermark of the last advanceEventTime attempt
	quiesce *atomic.Bool
	// broadcast sends the member's beat, stamped wm, to every partition of
	// a parent topic that has more than one, behind everything the member
	// forwarded before it (beat). Nil where the parent link is one lane —
	// a one-partition topic, a test harness — and the beat rides the
	// member's flush.
	broadcast func(wm mq.Watermark)

	// Adaptive runs only: control is the member's private standalone
	// consumer on the plan's control topic, drained at each window
	// boundary into cost — so a whole interval samples under one fraction.
	control transport.Consumer
	cost    *dynamicCost

	// Durability (LiveConfig.Checkpoint): ckpt is the session's store,
	// ckptBuf the reusable encode scratch, ckptErrs the session's
	// save-failure counter, and recover the one-shot restore hook Init
	// runs before the pump starts (set by RestartMember's rebuild). The
	// member saves at least once per saveEvery (LiveConfig.Window); lastSave
	// is its latest save.
	ckpt      checkpoint.Store
	ckptBuf   []byte
	ckptErrs  *atomic.Int64
	saveEvery time.Duration
	lastSave  time.Time
	// ckptDirty marks output forwarded since the last checkpoint by an
	// inline advance (mid-cycle, where offsets overcommit and a
	// checkpoint would be inconsistent); AfterCycle saves at the next safe
	// cut, so no forwarded window ever outlives the checkpoint covering it.
	ckptDirty bool
	recover   func(p *samplingProcessor, ctx streams.ProcessorContext) error
}

// batchEncoder collects the batches of one outbound flush and encodes them
// once, into one block sized from the batches' exact WireSize, with the keys
// and values sliced out of it — one allocation per flush at most, never one
// per record, and no scratch copy. Whose block that is follows the bus
// (transport.Bus.RetainsSent): the in-memory broker keeps produced Key/Value
// bytes in its partition logs, so there every flush gets a fresh block nobody
// writes again — the retained one; a network client has written them to the
// socket by the time the send returns, so there the encoder keeps block and
// encodes every flush into it (reuse). add only notes the batch: its items
// must stay untouched until the flush has materialized (the Ψ storage behind
// a closed window is recycled after flushEmits, never before).
type batchEncoder struct {
	batches []stream.Batch
	wms     []mq.Watermark
	size    int   // block bytes: keys + payloads
	payload int64 // payload bytes alone

	// reuse is !bus.RetainsSent() (encoderFor, where the owner is built).
	// The sends are synchronous (the sink's SendBatch inside ForwardBatch,
	// the valve's own), so the block is dead when flushEmits / valve.send
	// return.
	reuse bool
	block []byte
}

// encoderFor returns the encoder of a member or valve that sends on bus.
func encoderFor(bus transport.Bus) batchEncoder {
	return batchEncoder{reuse: !bus.RetainsSent()}
}

// add queues one outbound record: the batch, keyed by its sub-stream so a
// stratum sticks to one partition.
func (e *batchEncoder) add(b stream.Batch, wm mq.Watermark) {
	ws := b.WireSize()
	e.batches = append(e.batches, b)
	e.wms = append(e.wms, wm)
	e.size += len(b.Source) + ws
	e.payload += int64(ws)
}

func (e *batchEncoder) empty() bool { return len(e.batches) == 0 }

// payloadBytes totals the encoded batch payloads (produce-side bandwidth;
// keys are broker-internal routing metadata and are not accounted, matching
// the per-record path).
func (e *batchEncoder) payloadBytes() int64 { return e.payload }

// encode marshals record i onto block and returns the extended block with
// the record's key and value, each capped so a consumer's append can never
// run into its neighbour.
func (e *batchEncoder) encode(block []byte, i int) (extended, key, value []byte) {
	ks := len(block)
	block = append(block, e.batches[i].Source...)
	ke := len(block)
	block = e.batches[i].AppendMarshal(block)
	return block, block[ks:ke:ke], block[ke:len(block):len(block)]
}

// newBlock returns the empty block the queued records encode into: fresh
// where the bus retains it, the encoder's own (grown to the largest flush
// seen) where it does not.
func (e *batchEncoder) newBlock() []byte {
	if !e.reuse {
		return make([]byte, 0, e.size)
	}
	if cap(e.block) < e.size {
		e.block = make([]byte, 0, e.size)
	}
	return e.block
}

// records materializes the queued records appended onto dst, backed by one
// block (see type comment) — what a member forwards and a valve sends.
func (e *batchEncoder) records(dst []transport.Record) []transport.Record {
	block := e.newBlock()
	for i := range e.batches {
		var key, value []byte
		block, key, value = e.encode(block, i)
		dst = append(dst, transport.Record{Key: key, Value: value, Watermark: e.wms[i]})
	}
	return dst
}

// reset empties the encoder once its flush has been sent, dropping its views
// of the flushed batches' items.
func (e *batchEncoder) reset() {
	clear(e.batches)
	e.batches = e.batches[:0]
	e.wms = e.wms[:0]
	e.size, e.payload = 0, 0
	if poisonSentBlocks && e.reuse {
		sent := e.block[:cap(e.block)]
		for i := range sent {
			sent[i] = 0xA5
		}
	}
}

// poisonSentBlocks, which only tests set, makes an encoder that reuses its
// block scribble over it as soon as the flush has been sent — the earliest
// the next flush could. A bus that still reads the sender's bytes after the
// send returned then delivers garbage at once, on every record, instead of
// whenever two flushes happen to race.
var poisonSentBlocks bool

var (
	_ streams.Processor  = (*samplingProcessor)(nil)
	_ streams.Punctuator = (*samplingProcessor)(nil)
)

func (p *samplingProcessor) Init(ctx streams.ProcessorContext) error {
	p.ctx = ctx
	// The tracker's lane floors need the consumer's partition assignment —
	// installed before recovery, so the offset-gap replay already
	// classifies lanewise.
	p.wt.ownedFn = ownedLanesOf(ctx)
	if p.recover != nil {
		// Crash recovery runs here: Init is called synchronously by the
		// runtime's Start, after the consumer has joined its group but
		// before the pump goroutine launches — the one point where the
		// restored state and the offset-gap replay cannot race arriving
		// records. One-shot: a recovery failure must not re-run on a
		// subsequent restart attempt with the state half-restored.
		rec := p.recover
		p.recover = nil
		if err := rec(p, ctx); err != nil {
			return err
		}
	}
	return nil
}

// ProcessBatch handles one polled batch: decode and ingest stay per-message
// (so window assignment, the watermark ladder, and LateDropped accounting
// are bit-identical to record-at-a-time processing) while the batch
// amortizes the clock read, the pending-gauge store, and — via the emit
// scratch — the downstream broker append. The clock is the context's: the
// runtime's, which is the engine's.
func (p *samplingProcessor) ProcessBatch(msgs []streams.Message) error {
	now := p.ctx.Now()
	for i := range msgs {
		p.processEvent(msgs[i], now)
	}
	p.pending.Store(int64(p.ew.buffered()))
	return nil
}

// processEvent is ProcessBatch's per-message step: ingest, fold the
// piggybacked watermark, and advance — the advance runs per message, never
// deferred to the batch end, so a watermark landing mid-batch closes exactly
// the windows it would have closed unbatched and later records in the same
// batch are judged late against the same bound.
func (p *samplingProcessor) processEvent(msg streams.Message, now time.Time) {
	h, err := stream.ParseHeader(msg.Value, p.ew.strata)
	if err != nil {
		p.decodeErrs.Add(1)
		return
	}
	// Ingest before folding the record's watermark: the piggybacked
	// watermark may close the very window this record's items belong
	// to, and they must land inside it, not be counted late.
	p.ew.ingestWire(h)
	p.wt.foldSlot(msg.Watermark, h.Slot, msg.Partition, now)
	p.advanceEventTime(now)
}

// ownedLanesOf returns the reader of the input-topic partitions the
// context's consumer currently owns — the lane universe for the watermark
// tracker's per-lane floors — or nil when the context cannot report an
// assignment (a test harness), where the tracker owns the lanes it has
// consumed from.
func ownedLanesOf(ctx streams.ProcessorContext) func() []int {
	or, ok := ctx.(streams.OffsetReader)
	if !ok {
		return nil
	}
	return func() []int {
		pos := or.SourceCommitted()
		lanes := make([]int, len(pos))
		for i, po := range pos {
			lanes[i] = po.Partition
		}
		return lanes
	}
}

// flushEmits forwards everything the member's encoder accumulated as one
// message batch — one downstream broker append — and accounts the bytes.
// The encoder materializes them into one block (fresh where the bus retains
// it, its own where not — see batchEncoder); the message slice header is
// recycled, scrubbed after the forward so spare capacity never pins a retired
// block.
// Once it returns, the batches queued in the encoder are dead: callers that
// queued a closed window's Θ recycle its storage next.
func (p *samplingProcessor) flushEmits() {
	if p.enc.empty() {
		return
	}
	p.bwc.Add(p.enc.payloadBytes())
	msgs := p.enc.records(p.outMsgs[:0])
	p.ctx.ForwardBatch(msgs)
	p.enc.reset()
	for i := range msgs {
		msgs[i] = streams.Message{}
	}
	p.outMsgs = msgs[:0]
}

// Deadline implements streams.Punctuator: the earliest instant at which the
// member has work without new input, read at clock reading now — zero when
// only a record can give it any. It is the earliest of:
//
//   - the keepalive horizon (watermarkTracker.nextKeepalive): the first
//     presence beat, an entry back from idle, then IdleTimeout/4 after the
//     last beat — until quiesce silences keepalives;
//   - the instant the tracker's cached minimum can next lose an entry to
//     idleness (nextAging), which may advance the watermark;
//   - once quiesce is set with data buffered, the instant every entry has
//     gone stale (staleAt): the shutdown backstop;
//   - with a checkpoint store, one save per saveEvery.
//
// With aging off (IdleTimeout < 0) and no store, a member that has sent its
// presence beat has no deadline: its pump parks until a record arrives.
func (p *samplingProcessor) Deadline(now time.Time) time.Time {
	due := p.wt.nextAging(now)
	if !p.quiesce.Load() {
		due = earlier(due, p.wt.nextKeepalive(now))
	} else if p.ew.buffered() > 0 {
		due = earlier(due, p.wt.staleAt())
	}
	if p.ckpt != nil {
		due = earlier(due, p.lastSave.Add(p.saveEvery))
	}
	return due
}

// Punctuate is the member's flush at clock reading now, run once its
// Deadline has passed: re-derive the watermark (idle sources may now be
// excluded) and sweep windows that became due, then re-assert liveness
// upstream if that is due — a member buffering data behind the lateness
// horizon has forwarded nothing yet, and without the keepalive its parent
// could age it out of the minimum and close windows its buffered data
// belongs to.
func (p *samplingProcessor) Punctuate(now time.Time) {
	switch {
	case p.advanceEventTime(now):
		// An advance already re-asserted liveness: its beat carries the
		// outbound watermark to every parent lane.
	case p.quiesce.Load() && p.ew.buffered() > 0 && p.wt.allStale(now):
		// Shutdown backstop: every chain is stranded — a rebalance moved
		// this member's sub-streams to partitions it no longer owns, so no
		// record, heartbeat, or EOS will ever arrive to close what it
		// buffers. No further input is possible past quiesce, so force the
		// end-of-stream drain; any straggler is late-dropped with honest
		// LateDroppedInput accounting.
		p.drainAll(now)
	default:
		p.keepalive(now)
	}
	// Zero pending only after forwarding: the drain probe must always see
	// in-flight data as either buffered Ψ here or lag on the parent topic.
	p.pending.Store(int64(p.ew.buffered()))
	p.saveCheckpoint()
}

// saveCheckpoint serializes the member's recovery state into the session's
// checkpoint store. It runs from Punctuate — between poll cycles — and from
// AfterCycle, where the committed consumer offsets account for exactly the
// records the member has ingested; checkpointing mid-batch would commit a
// cut with fetched-but-not-ingested records and recovery would skip them.
// Save failures are counted, not fatal.
func (p *samplingProcessor) saveCheckpoint() {
	if p.ckpt == nil {
		return
	}
	p.lastSave = p.ctx.Now()
	or, ok := p.ctx.(streams.OffsetReader)
	if !ok {
		return
	}
	p.ckptDirty = false
	p.ckptBuf = encodeMemberCheckpoint(p.ckptBuf[:0], p, or.SourceCommitted())
	if err := p.ckpt.Save(p.id, p.ckptBuf); err != nil && p.ckptErrs != nil {
		p.ckptErrs.Add(1)
	}
}

// drainAll is the graceful-removal flush: everything the member still
// buffers is forwarded NOW, regardless of window boundaries, so a removed
// member leaves nothing behind. It advances to the end-of-stream watermark
// (closing every open window with the honest per-window ladder stamps), and
// its beat, at an end-of-stream watermark, is the member's sign-off: the
// parent's floors for this member lift lane by lane instead of waiting out
// the idle timeout. Runs on the frozen member's state, after its pump
// stopped.
func (p *samplingProcessor) drainAll(now time.Time) {
	p.flushTo(eosWatermark, now)
	p.pending.Store(0)
}

// broadcast sends records, in order, to every partition of topic, and
// accounts each copy's payload on bwc: end of stream and a member's beat are
// topic-global — every partition's consumer must hear them, not just the one
// a sub-stream's key hashes to. The bus outlives the drain, so a send can
// only fail once the deployment is past caring about these records.
func broadcast(prod transport.Producer, topic string, partitions int, bwc *metrics.BandwidthCounter, recs ...transport.Record) {
	var payload int64
	for _, r := range recs {
		payload += int64(len(r.Value))
	}
	for part := 0; part < partitions; part++ {
		bwc.Add(payload)
		_ = prod.SendTo(topic, part, recs)
	}
}

// advanceEventTime closes every event window the member's current watermark
// makes due, forwards the results (flushTo), and reports whether the close
// bound moved.
func (p *samplingProcessor) advanceEventTime(now time.Time) bool {
	wm := p.wt.watermark(now)
	if wm.Equal(p.triedWM) && !p.ew.behind {
		// Nearly every record: the minimum has not moved since the last
		// attempt, which either left the bound where this watermark puts it
		// or found it already there — and the bound never falls.
		return false
	}
	p.triedWM = wm
	if !p.ew.wouldAdvance(wm) {
		return false
	}
	p.flushTo(wm, now)
	p.ckptDirty = true
	return true
}

// flushTo closes every event window wm makes due and forwards them with a
// beat behind them. Data records are stamped with their window's
// dataWatermark — the ladder a parent must climb window by window, so a
// multi-window flush can never close more at the parent than has already
// arrived — and the beat carries the outbound watermark to every parent
// lane, so parents advance across empty windows and reach the final bound.
// Control-topic drains stay pinned to window boundaries.
func (p *samplingProcessor) flushTo(wm, now time.Time) {
	p.applyControl()
	closed := p.ew.advance(wm)
	for _, cw := range closed {
		stamp := mq.Watermark{From: p.id, At: p.ew.dataWatermark(cw.start)}
		for _, b := range cw.theta {
			p.enc.add(b, stamp)
		}
	}
	p.beat(now)
	p.ew.recycle(closed)
}

// AfterCycle implements streams.CycleObserver: if an inline advance
// forwarded windows this cycle, checkpoint now — the end-of-cycle
// cut is the first point where committed offsets and ingested records
// coincide again. This keeps the recovery contract airtight: the close
// bound in the newest checkpoint always equals the bound at any later
// crash, so replay classifies every gap record exactly as the dead member
// did.
func (p *samplingProcessor) AfterCycle() {
	if p.ckptDirty {
		p.saveCheckpoint()
	}
}

// keepalive re-asserts the member's liveness upstream when that is due
// (watermarkTracker.keepaliveDue) and the member has an active entry to
// vouch for: a beat at the outbound watermark once one exists, else a
// zero-instant presence record that refreshes the parent's idle clocks
// without promising anything.
func (p *samplingProcessor) keepalive(now time.Time) {
	if p.quiesce.Load() || !p.wt.keepaliveDue(now) || !p.wt.active(now) {
		return
	}
	p.beat(now)
}

// beat flushes what the member queued and sends its promise — its outbound
// watermark, zero before it has one — to every lane of its parent topic:
// one zero-item record per partition, originated by the member, behind
// everything it forwarded before. The stamp never reaches past what the
// member has forwarded, so a parent's floor for each lane may rise to it; a
// beat at an end-of-stream watermark is the member's sign-off.
func (p *samplingProcessor) beat(now time.Time) {
	wm := mq.Watermark{From: p.id, At: p.ew.outboundWatermark()}
	if p.broadcast == nil {
		p.enc.add(heartbeat(stream.SourceID(p.id)), wm)
		p.flushEmits()
	} else {
		p.flushEmits()
		p.broadcast(wm)
	}
	p.wt.beat(now)
}

// stats returns the member's lifetime counters.
func (p *samplingProcessor) stats() NodeStats { return p.ew.stats() }

// applyControl drains the member's control consumer and installs the
// newest published fraction. It runs immediately before windows close —
// the window boundary — so Eq. 8 weight compounding never sees a
// mid-interval fraction change. Later records win. A malformed record is
// skipped and the member keeps its current fraction (self-healing at the
// next update); it is NOT counted into DecodeErrors, which is a
// data-plane counter — the control topic is a broadcast every member
// reads, so per-member counting would inflate one bad record by the
// deployment's member count.
func (p *samplingProcessor) applyControl() {
	if p.control == nil {
		return
	}
	latest := -1.0
	var recs []transport.Record
	for {
		var err error
		if recs, err = p.control.TryPollInto(recs[:0], 64); err != nil || len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			if _, f, err := decodeControl(rec.Value); err == nil {
				latest = f
			}
		}
	}
	if latest > 0 {
		p.cost.set(latest)
	}
}

func (p *samplingProcessor) Close() error {
	if p.control != nil {
		p.control.Close()
	}
	return nil
}

// rootProcessor is the root-flavored shard member: it buckets Θ per event
// window and tracks its per-source watermark in wt, both under mu, instead of
// forwarding; the session's sweeper merges the members' watermarks and
// drives every member's window closes to the same bound. A batch that carries
// the member's watermark across a window end nudges the sweeper, so a window
// closes as soon as the merged watermark passes it. It spins the configured
// per-item query cost and maintains the run's root-side counters. In-flight
// records are covered by the member Runtime's Busy gauge; buffered root Θ
// awaits the sweeper, not the drain, so no pending counter is needed here.
type rootProcessor struct {
	mu sync.Mutex
	ew *eventWindows
	wt *watermarkTracker
	// lastWM is the member's watermark after its previous batch (under mu),
	// and nudge the sweeper's wake (engine.nudgeSweep).
	lastWM time.Time
	nudge  func()
	// ctx is the member's clock, and reports the consumer's partition
	// assignment for the tracker's lane floors (the root consumes, it never
	// signs off itself).
	ctx streams.ProcessorContext

	id           string
	work         time.Duration
	processed    *atomic.Int64
	decodeErrs   *atomic.Int64
	lastActivity *atomic.Int64      // unix nanos of last root-side processing
	latency      *metrics.Histogram // private per member; merged into the result at shutdown
}

var _ streams.Processor = (*rootProcessor)(nil)

func (p *rootProcessor) Init(ctx streams.ProcessorContext) error {
	p.ctx = ctx
	p.wt.ownedFn = ownedLanesOf(ctx)
	return nil
}

// ProcessBatch ingests one polled batch under a single mutex acquisition:
// each member owns its node privately and only the sweeper ever contends.
// Decode, the watermark fold, and late accounting stay per-message inside the
// loop, so batching changes no window content.
func (p *rootProcessor) ProcessBatch(msgs []streams.Message) error {
	p.lastActivity.Store(p.ctx.Now().UnixNano())
	var total int64
	p.mu.Lock()
	for i := range msgs {
		total += p.processLocked(msgs[i])
	}
	p.nudgeOnAdvance(p.ctx.Now())
	p.mu.Unlock()
	p.processed.Add(total)
	p.lastActivity.Store(p.ctx.Now().UnixNano())
	return nil
}

// processLocked is the per-message root step. Callers hold p.mu.
func (p *rootProcessor) processLocked(msg streams.Message) int64 {
	h, err := stream.ParseHeader(msg.Value, p.ew.strata)
	if err != nil {
		p.decodeErrs.Add(1)
		return 0
	}
	spin(time.Duration(h.Count) * p.work)
	now := p.ctx.Now()
	// Items are stamped with their publish instant at the source (Pub —
	// with EventTime off Ts is the same instant; the simulator stamps its
	// virtual send), so this is genuine end-to-end latency: edge window
	// waits, hops, and the root's own service time all count. Every item of one Push carries the
	// same instant, so the histogram takes each run of equal instants — read
	// off the wire block, before anything is decoded — in one observation
	// instead of one per item.
	nowNanos := now.UnixNano()
	for lo := 0; lo < h.Count; {
		ref := latencyRef(h, lo)
		hi := lo + 1
		for hi < h.Count && latencyRef(h, hi) == ref {
			hi++
		}
		p.latency.ObserveN(time.Duration(nowNanos-ref), int64(hi-lo))
		lo = hi
	}
	// Ingest before folding the watermark, mirroring the edge members.
	p.ew.ingestWire(h)
	p.wt.foldSlot(msg.Watermark, h.Slot, msg.Partition, now)
	return int64(h.Count)
}

// latencyRef is the instant (unix nanoseconds) item i's end-to-end latency is
// measured from: its publish stamp, or its event timestamp when it carries
// none.
func latencyRef(h stream.Header, i int) int64 {
	if pub := h.PubNanos(i); pub != 0 {
		return pub
	}
	return h.TsNanos(i)
}

func (p *rootProcessor) Close() error { return nil }

// nudgeOnAdvance nudges the sweeper when the batch just ingested carried the
// member's watermark across a window end not yet closed — or reopened a
// window behind the close bound — so the root closes the window as soon as
// the merged watermark passes it. Once per crossing: a member ahead of its
// siblings nudged when it crossed, and the last sibling to cross nudges for
// the close. A watermark that loses its value (blocked, every chain idle)
// crosses again when it comes back. Callers hold p.mu.
func (p *rootProcessor) nudgeOnAdvance(now time.Time) {
	wm := p.wt.watermark(now)
	crossed := !wm.IsZero() && (p.lastWM.IsZero() || p.ew.closeBoundFor(wm) > p.ew.closeBoundFor(p.lastWM))
	p.lastWM = wm
	if p.ew.behind || crossed && p.ew.moves(wm) {
		p.nudge()
	}
}

// nextAging returns the instant the member's watermark can next change
// without a record (watermarkTracker.nextAging): the sweeper's idle deadline.
func (p *rootProcessor) nextAging(now time.Time) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wt.nextAging(now)
}

// watermarkState returns the member's current watermark (zero
// when the member has seen no live chains) and whether an expected-but-
// unheard producer is holding it back.
func (p *rootProcessor) watermarkState(now time.Time) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wt.watermarkState(now)
}

// advanceTo closes the member's event windows up to the merged watermark
// the session's sweeper derived. All members advance to the same bound, so
// a window is merged across members exactly once.
func (p *rootProcessor) advanceTo(wm time.Time) []closedWindow {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ew.advance(wm)
}

// recycle hands back the storage of windows advanceTo closed, once the
// session has run their queries: Θ is dead, and the member's lock is the
// one its ingest path takes the slabs under.
func (p *rootProcessor) recycle(closed []closedWindow) {
	if len(closed) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ew.recycle(closed)
}

// stats returns the member's lifetime counters.
func (p *rootProcessor) stats() NodeStats { return p.ew.stats() }

// groupMember is one consumer-group member of a shardGroup: its runtime, its
// shard identity (which fixes the member ID and seed lineage), and its
// lifecycle flags. A member is live until killed (KillMember — restartable)
// or removed (RemoveMember / RemoveEdgeNode — retired for good); retired and
// dead members stay in the group's member list so lifetime telemetry
// survives them.
type groupMember struct {
	shard int
	id    string
	rt    *streams.Runtime
	proc  *samplingProcessor // nil for root members
	// dead marks a killed member awaiting RestartMember; removed marks one
	// gone for good.
	dead, removed bool
	// killedOffsets are the broker-committed source offsets at the kill
	// instant — the end of the replay range a restarted member re-ingests.
	killedOffsets []streams.PartitionOffset
	// killedChangeOffs is the group's membership-barrier offset snapshot as
	// it stood at the kill instant — the replay origin for any partition the
	// member's last checkpoint does not cover (no checkpoint yet, or a save
	// failure). It must be captured at the kill: later barriers advance the
	// group snapshot past offsets the victim still has to replay.
	killedChangeOffs []int64
}

// live reports whether the member is pumping (not killed, not retired).
func (m *groupMember) live() bool { return !m.dead && !m.removed }

// shardGroup is the live instantiation of one compiled node as a consumer
// group: its streams.Runtime members share the node's ID as their
// application ID, so the broker deals the input topic's partitions out
// across them — exactly how a Kafka Streams application scales
// horizontally. Every member owns a private sampling node; Eq. 8 weight
// compounding keeps the forwarded estimates exact without any cross-member
// coordination, which is also what makes the group elastic: members can
// join, leave, die, and rejoin mid-run (see elastic.go) without a merge
// barrier to renegotiate. The root node is a shardGroup too (its members
// merely don't sink — the sweeper merges their Θ instead — and the
// root group is not elastic).
type shardGroup struct {
	desc NodeDesc

	// mu guards the member list and the elastic flags: membership changes
	// (serialized by the session's elMu) mutate under it while the drain
	// probe, telemetry, and ingest valves read concurrently.
	mu      sync.Mutex
	members []*groupMember
	// nextShard is the next shard index to assign. Monotone — member IDs,
	// checkpoint keys, and salted seed lineages are never reused across the
	// group's lifetime, so a restarted or re-added member can never collide
	// with a retired one's identity.
	nextShard int
	// changeOffsets snapshots the group's committed input offsets at the
	// last membership barrier (postChange) — the fallback replay origin for
	// partitions a dead member's checkpoint does not cover. Zeros at birth.
	changeOffsets []int64
	// detached marks a layer-0 group drained and stopped by RemoveEdgeNode:
	// pushes to its source slots are rejected and the session's drain and
	// lag probes skip it. detachedCount remembers how many members to
	// rebuild at AddEdgeNode.
	detached      bool
	detachedCount int

	// build constructs (without starting) the member for one shard index —
	// captured at group creation so RestartMember / AddMember rebuild
	// members with exactly the wiring OpenLive used.
	build func(shard int) (*groupMember, error)
	// budget is the group's dynamic FixedBudget splitter (nil for every
	// other cost policy); kill/remove must leave it, rebuilds rejoin it.
	budget *groupBudget
}

// newShardGroup builds (without starting) the group's initial members.
// newProc is invoked once per member with the shard index and must return
// the member's processor twice: as the streams.Processor to wire into the
// topology, and as the *samplingProcessor the elastic layer drives (nil for
// root and forwarding members). Every member runtime takes opts
// (engine.runtimeOptions).
func newShardGroup(bus transport.Bus, desc NodeDesc, opts []streams.RuntimeOption, newProc func(shard int) (streams.Processor, *samplingProcessor)) (*shardGroup, error) {
	g := &shardGroup{desc: desc, nextShard: desc.Shards}
	g.build = func(shard int) (*groupMember, error) {
		proc, sp := newProc(shard)
		b := streams.NewTopology().
			Source("in", desc.Topic).
			Processor("sampler", func() streams.Processor { return proc }, "in")
		if desc.ParentTopic != "" {
			b = b.Sink("out", desc.ParentTopic, "sampler")
		}
		topo, err := b.Build()
		if err != nil {
			return nil, err
		}
		rt, err := streams.NewRuntime(bus, topo, desc.ID, opts...)
		if err != nil {
			return nil, err
		}
		return &groupMember{shard: shard, id: memberID(desc, shard), rt: rt, proc: sp}, nil
	}
	for shard := 0; shard < desc.Shards; shard++ {
		m, err := g.build(shard)
		if err != nil {
			g.stop()
			return nil, err
		}
		g.members = append(g.members, m)
	}
	return g, nil
}

// start launches every live member; on failure the group is stopped.
func (g *shardGroup) start() error {
	for _, m := range g.live() {
		if err := m.rt.Start(); err != nil {
			g.stop()
			return err
		}
	}
	return nil
}

// stop shuts members down in reverse order. Idempotent; never-started, dead,
// and retired members included (their Stop is a no-op).
func (g *shardGroup) stop() {
	g.mu.Lock()
	members := append([]*groupMember(nil), g.members...)
	g.mu.Unlock()
	for i := len(members) - 1; i >= 0; i-- {
		_ = members[i].rt.Stop()
	}
}

// live snapshots the group's live members in shard-join order.
func (g *shardGroup) live() []*groupMember {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*groupMember, 0, len(g.members))
	for _, m := range g.members {
		if m.live() {
			out = append(out, m)
		}
	}
	return out
}

// liveCount counts the members currently pumping.
func (g *shardGroup) liveCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, m := range g.members {
		if m.live() {
			n++
		}
	}
	return n
}

// lag totals the unfetched records across the group's live members. A dead
// member's partitions rebalance to the survivors at its Stop, so their lag
// covers the whole topic.
func (g *shardGroup) lag() int64 {
	var lag int64
	for _, m := range g.live() {
		lag += m.rt.Lag()
	}
	return lag
}

// busy reports whether any live member's pump is mid-cycle (fetched records
// may be in flight even at zero lag).
func (g *shardGroup) busy() bool {
	for _, m := range g.live() {
		if m.rt.Busy() {
			return true
		}
	}
	return false
}

// pending totals the items buffered in live members' Ψ stores awaiting
// their window flush — the drain probe's third leg.
func (g *shardGroup) pending() int64 {
	var pending int64
	for _, m := range g.live() {
		if m.proc != nil {
			pending += m.proc.pending.Load()
		}
	}
	return pending
}

// isDetached reports whether the group has been drained and stopped by
// RemoveEdgeNode.
func (g *shardGroup) isDetached() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.detached
}

// changeOffsetsSnapshot copies the offsets recorded at the last membership
// barrier.
func (g *shardGroup) changeOffsetsSnapshot() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int64(nil), g.changeOffsets...)
}

// RunLive executes one live experiment against the compiled deployment
// plan: the batch-shaped compatibility wrapper over the session API. It
// opens a LiveSession, feeds cfg.Items generator items through the same
// Ingester valves external pushers use, drains, and returns the final
// result — exactly the pre-session contract.
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	if cfg.Source == nil {
		return nil, ErrNoSourceFunc
	}
	if cfg.Items <= 0 {
		return nil, ErrNoItems
	}
	s, err := OpenLive(nil, cfg)
	if err != nil {
		return nil, err
	}
	s.feed(cfg.Source, cfg.Items)
	return s.Close()
}

// spin burns CPU for roughly d, modelling per-item query execution cost.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
