package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/workload"
)

// This file is the session layer of live mode: a LiveSession is the
// long-lived deployment handle behind the facade's approxiot.Open. Where the
// original RunLive was batch-shaped — produce a fixed item count, block, and
// return — the session separates the lifecycle into explicit phases:
//
//	OpenLive    compile the plan, create topics, start every shard group
//	            and the window ticker; return immediately
//	ingesting   callers push items (Ingest / Ingester), subscribe to
//	            window results (Windows), read telemetry (Snapshot), and
//	            steer the adaptive controller (SetTarget)
//	draining    Close stops accepting pushes and waits for in-flight
//	            windows to reach the root
//	closed      the final LiveResult is merged and returned; context
//	            cancellation jumps here directly, skipping the drain but
//	            keeping every already-closed window intact
//
// RunLive still exists as a thin compatibility wrapper: it opens a session,
// runs the configured generators through the same Ingester valve every
// external client uses, and closes.

// Session lifecycle errors.
var (
	// ErrSessionClosed rejects operations on a session that has finished
	// (Close completed or the context was cancelled).
	ErrSessionClosed = errors.New("core: live session closed")
	// ErrSessionDraining rejects pushes that arrive after Close started
	// draining: accepted items could no longer be guaranteed to reach the
	// root before the final window merge.
	ErrSessionDraining = errors.New("core: live session draining")
	// ErrNotAdaptive rejects SetTarget on a session opened without a
	// feedback controller.
	ErrNotAdaptive = errors.New("core: session has no feedback controller (set LiveConfig.Feedback / Config.Adaptive)")
	// ErrBadSourceSlot rejects an Ingester request for a slot outside
	// [0, Spec.Sources).
	ErrBadSourceSlot = errors.New("core: source slot out of range")
)

// SessionState is one phase of the Deployment lifecycle.
type SessionState int32

// Lifecycle states, in order. A session is born ingesting; Close moves it
// through draining to closed; context cancellation moves it to closed
// directly.
const (
	StateIngesting SessionState = iota
	StateDraining
	StateClosed
)

// String implements fmt.Stringer.
func (s SessionState) String() string {
	switch s {
	case StateIngesting:
		return "ingesting"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("SessionState(%d)", int32(s))
	}
}

// windowSubBuffer is the per-subscriber buffer of Windows channels. A
// subscriber that falls further behind misses results (they remain in the
// final LiveResult.Windows) rather than stalling the window ticker.
const windowSubBuffer = 128

// defaultMaxIngestLag is the push-side backpressure high-water mark: an
// Ingester blocks while its leaf topic's unconsumed backlog exceeds this
// many records, bounding broker memory no matter how fast callers push.
const defaultMaxIngestLag = 8192

// defaultDrainTimeout bounds how long Close waits for a wedged pipeline to
// quiesce before giving up and surfacing ErrDrainTimeout.
const defaultDrainTimeout = 2 * time.Minute

// ErrDrainTimeout reports that Close's drain deadline (LiveConfig.
// DrainTimeout) expired before the pipeline quiesced: the final LiveResult
// was assembled anyway, but in-flight items may be missing from it.
// Surfaced by Close and Err, and mirrored on LiveResult.DrainTimedOut.
var ErrDrainTimeout = errors.New("core: drain deadline exceeded; final result may be missing in-flight items")

// LiveSession is a running live deployment: the compiled tree instantiated
// as shard groups over a transport bus — the in-memory broker by default,
// or any backend supplied via LiveConfig.Bus — accepting pushed items and
// emitting window results until closed. Construct with OpenLive; all
// methods are safe for concurrent use.
type LiveSession struct {
	cfg  LiveConfig
	plan *Plan
	bus  transport.Bus
	// ownsBus: the session created its own in-memory bus and shuts it down
	// at close; a caller-supplied bus (LiveConfig.Bus) is left running — it
	// may serve other processes.
	ownsBus bool
	engine  *query.Engine

	groups    []*shardGroup          // every consumer group, root last
	groupByID map[string]*shardGroup // node ID → its group (root included)
	rootGrp   *shardGroup
	rootProcs []*rootProcessor
	rootCosts []*dynamicCost

	// elMu serializes membership changes (Add/Remove/Kill/Restart member,
	// edge-node detach/attach); per-group mu still guards the member lists
	// against the concurrent readers (drain probe, telemetry, valves).
	elMu sync.Mutex
	// ckptErrs counts checkpoint-save failures across every member
	// (LiveSnapshot.CheckpointErrors) — counted, never fatal.
	ckptErrs atomic.Int64

	res *LiveResult
	// final publishes res atomically once finalize has fully assembled it
	// (nil until then). Snapshot reads closed-run fields exclusively through
	// this pointer, so its safety is structural — independent of the order
	// shutdown happens to store the lifecycle state in.
	final atomic.Pointer[LiveResult]

	// quiesce silences the event-time keepalive punctuations from the
	// moment shutdown starts (see samplingProcessor.keepalive).
	quiesce atomic.Bool

	// Run-wide counters, written by member pumps and ingesters, read by
	// Snapshot at any time.
	produced      atomic.Int64
	rootProcessed atomic.Int64
	decodeErrs    atomic.Int64
	late          lateCounter  // event-time mode: records past the lateness horizon
	lastActivity  atomic.Int64 // unix nanos of last root-side processing
	startNanos    atomic.Int64 // run start: first ingest (open time until then)
	started       atomic.Bool

	// Per-slot ground truth, folded into res.TruthSum in slot order at
	// finalize so the total is deterministic regardless of goroutine
	// scheduling.
	truth []paddedFloat

	// Window-close machinery. windowMu serializes closeWindow and guards
	// res.Windows / res.Fractions. windowsClosed mirrors len(res.Windows)
	// atomically so Snapshot never needs windowMu — closeWindow calls the
	// OnWindow hook while holding it, and a hook that reads a Snapshot
	// must not self-deadlock.
	windowMu      sync.Mutex
	windowsClosed atomic.Int64
	ctlProducer   transport.Producer
	ctlSeq        uint64
	// sliding composes pane estimates at the root when LiveConfig.Slide ≥ 2
	// (nil otherwise); driven only under windowMu by emitWindowLocked.
	sliding *slidingState
	// lastWindow publishes the most recently emitted window result for
	// Snapshot (nil until the first non-empty window closes).
	lastWindow atomic.Pointer[WindowResult]

	// Windows() subscriptions.
	subMu      sync.Mutex
	subs       []chan WindowResult
	subsClosed bool
	subDrops   atomic.Int64

	// Ingestion valves, one per source slot, created on demand.
	ingMu     sync.Mutex
	ingesters []*Ingester

	// Push/Close barrier. Every Push holds pushMu for reading from its
	// state check to its last Send; shutdown flips the state, closes
	// drainCh (waking pacing sleeps), and takes pushMu for writing — so no
	// push admitted before the state flip can still be mid-flight when the
	// drain probe starts, and none can touch the broker or the truth
	// accumulators after finalize.
	pushMu  sync.RWMutex
	drainCh chan struct{}

	// Lifecycle.
	state      atomic.Int32
	ctx        context.Context
	cancelTick context.CancelFunc
	tickWG     sync.WaitGroup
	watchWG    sync.WaitGroup
	closeOnce  sync.Once
	done       chan struct{}
	errMu      sync.Mutex
	closeErr   error
}

// paddedFloat is a mutex-guarded accumulator with its own cache line's
// worth of state, so per-slot truth sums don't false-share.
type paddedFloat struct {
	mu sync.Mutex
	v  float64
	_  [40]byte
}

// OpenLive compiles cfg's deployment plan, instantiates it as live shard
// groups, and returns the running session. It returns as soon as the tree is
// pumping: no items flow until the caller pushes them (Ingest / Ingester).
// cfg.Source and cfg.Items are ignored — they belong to the batch-shaped
// RunLive wrapper. Cancelling ctx aborts the session: in-flight data is
// dropped, but every window already closed keeps its exact-count estimates,
// and all goroutines exit. A nil ctx behaves like context.Background().
func OpenLive(ctx context.Context, cfg LiveConfig) (*LiveSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, plan, err := compileLive(cfg)
	if err != nil {
		return nil, err
	}

	bus := cfg.Bus
	ownsBus := bus == nil
	if ownsBus {
		bus = transport.NewMem()
	}
	s := &LiveSession{
		cfg:     cfg,
		plan:    plan,
		bus:     bus,
		ownsBus: ownsBus,
		engine:  query.NewEngine(query.WithConfidence(cfg.Confidence)),
		res: &LiveResult{
			Latency:   metrics.NewHistogram(),
			Bandwidth: metrics.NewBandwidthAccount(),
		},
		truth:     make([]paddedFloat, plan.Spec.Sources),
		ingesters: make([]*Ingester, plan.Spec.Sources),
		groupByID: make(map[string]*shardGroup),
		ctx:       ctx,
		drainCh:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.sliding = newSlidingState(cfg.Slide, plan.Spec.Window, cfg.Confidence, plan.Queries)
	now := time.Now()
	s.startNanos.Store(now.UnixNano())
	s.lastActivity.Store(now.UnixNano())

	// The plan names every topic and fixes its partition count; create them
	// before any runtime subscribes. Creation is idempotent across bus
	// clients (same partition count), so on a shared bus the session races
	// other processes' startups safely.
	for _, td := range plan.Topics() {
		if err := s.bus.CreateTopic(td.Name, td.Partitions, 4096); err != nil {
			s.closeBus()
			return nil, err
		}
	}

	// Edge layers: one shard group per compiled node descriptor — the
	// node's consumer group, desc.Shards members strong. Adaptive runs
	// give every member a private dynamic cost plus a standalone control
	// consumer; the root publishes, the members drain at window close.
	fail := func(err error) (*LiveSession, error) {
		s.stopAll()
		s.closeBus()
		return nil, err
	}
	for _, desc := range plan.EdgeNodes() {
		desc := desc
		var memberErr error
		// FixedBudget groups get a dynamic splitter so membership changes
		// re-split the node's total cap across however many members are
		// live. Initial members join in shard order, so the initial shares
		// reproduce the static NewNodeShardCost split exactly — cross-mode
		// equivalence is untouched. Feedback runs own their budget already
		// (control-plane fractions are input-relative and compose at any
		// member count).
		var gb *groupBudget
		if fb, ok := cfg.Cost.(FixedBudget); ok && cfg.Feedback == nil {
			gb = newGroupBudget(fb.Size)
		}
		grp, err := newShardGroup(s.bus, desc, cfg.recordAtATime, func(shard int) (streams.Processor, *samplingProcessor) {
			sp := &samplingProcessor{
				id:         memberID(desc, shard),
				quiesce:    &s.quiesce,
				window:     cfg.Window,
				streaming:  cfg.Streaming,
				decodeErrs: &s.decodeErrs,
				ckpt:       cfg.Checkpoint,
				ckptErrs:   &s.ckptErrs,
				// Private lock-free byte counter for the member's parent
				// link; the account folds it in at read time.
				bwc: s.res.Bandwidth.Counter(desc.ParentTopic),
				enc: encoderFor(s.bus),
			}
			mk := func() *Node { return plan.NewNodeShard(desc, shard) }
			if gb != nil {
				mb := gb.join(memberID(desc, shard))
				mk = func() *Node { return plan.NewNodeShardCost(desc, shard, mb) }
			}
			if cfg.Feedback != nil {
				sp.cost = newDynamicCost(cfg.Feedback.Fraction())
				mk = func() *Node { return plan.NewNodeShardCost(desc, shard, sp.cost) }
				c, cerr := s.bus.NewConsumer(plan.ControlTopic)
				if cerr != nil && memberErr == nil {
					memberErr = cerr // keep the first failure; later shards must not clobber it
				}
				sp.control = c
			}
			if cfg.EventTime {
				// Ψ lives in per-event-window nodes; mk seeds each window
				// identically from the plan's lineage, so a window's
				// sampling is independent of how many windows preceded it.
				sp.ew = newEventWindows(plan.Spec.Window, cfg.AllowedLateness, &s.late, mk)
				sp.eosNotify = memberEOSBroadcast(s.bus.NewProducer(), desc.ParentTopic,
					sp.id, plan.Partitions, sp.bwc)
				sp.wt = newWatermarkTracker(cfg.IdleTimeout)
				// Every producer the plan says can feed this node holds the
				// watermark until heard from (or idled out) — sibling pumps
				// race, and a chain must never be invisible to the minimum
				// just because it is slow.
				for _, from := range plan.ExpectedProducers(desc) {
					sp.wt.expect(from, now)
				}
			} else {
				sp.node = mk()
			}
			return sp, sp
		})
		if err == nil {
			err = memberErr
		}
		if err != nil {
			return fail(err)
		}
		grp.budget = gb
		grp.changeOffsets = make([]int64, plan.Partitions)
		s.groups = append(s.groups, grp)
		s.groupByID[desc.ID] = grp
	}

	// Root consumer group: the same shard-group machinery, with
	// root-flavored members. RootShards members split the root topic's
	// partitions; each aggregates and samples its share, and a window
	// ticker merges every member's Θ and runs the queries once. The
	// controller is colocated with the root (the paper's datacenter), so
	// adaptive root members take fraction updates directly at the merge
	// instead of round-tripping through the control topic.
	s.rootProcs = make([]*rootProcessor, plan.RootShards)
	s.rootCosts = make([]*dynamicCost, 0, plan.RootShards)
	rootGrp, err := newShardGroup(s.bus, plan.Root(), cfg.recordAtATime, func(shard int) (streams.Processor, *samplingProcessor) {
		p := &rootProcessor{
			id:           memberID(plan.Root(), shard),
			work:         cfg.RootWork,
			processed:    &s.rootProcessed,
			decodeErrs:   &s.decodeErrs,
			lastActivity: &s.lastActivity,
			// Private histogram: shards must not serialize on one mutex in
			// the per-item hot path. Merged into res.Latency at shutdown
			// (and into fresh histograms by mid-run Snapshots).
			latency: metrics.NewHistogram(),
		}
		mk := func() *Node { return plan.NewRootShard(shard) }
		if cfg.Feedback != nil {
			dc := newDynamicCost(cfg.Feedback.Fraction())
			s.rootCosts = append(s.rootCosts, dc)
			mk = func() *Node { return plan.NewNodeShardCost(plan.Root(), shard, dc) }
		}
		if cfg.EventTime {
			p.ew = newEventWindows(plan.Spec.Window, cfg.AllowedLateness, &s.late, mk)
			p.wt = newWatermarkTracker(cfg.IdleTimeout)
			for _, from := range plan.ExpectedProducers(plan.Root()) {
				p.wt.expect(from, now)
			}
		} else {
			p.node = mk()
		}
		s.rootProcs[shard] = p
		return p, nil
	})
	if err != nil {
		return fail(err)
	}
	s.rootGrp = rootGrp
	s.groups = append(s.groups, rootGrp)
	s.groupByID[plan.Root().ID] = rootGrp

	if cfg.corruptRoot > 0 {
		// Test hook: poison the root topic before anything consumes it.
		p := s.bus.NewProducer()
		for i := 0; i < cfg.corruptRoot; i++ {
			if _, _, err := p.Send(plan.Root().Topic, nil, []byte{0xFF, 0xBA, 0xD0}); err != nil {
				return fail(err)
			}
		}
	}

	for _, g := range s.groups {
		if err := g.start(); err != nil {
			return fail(err)
		}
	}

	s.ctlProducer = s.bus.NewProducer()

	// Window ticker: a blocking select — no busy branch — closes windows
	// while the members pump. Its context is private: the user's ctx abort
	// path runs through shutdown, which stops the ticker in order.
	tickCtx, cancelTick := context.WithCancel(context.Background())
	s.cancelTick = cancelTick
	s.tickWG.Add(1)
	go func() {
		defer s.tickWG.Done()
		ticker := time.NewTicker(cfg.Window)
		defer ticker.Stop()
		for {
			select {
			case <-tickCtx.Done():
				return
			case now := <-ticker.C:
				s.closeWindow(now)
			}
		}
	}()

	// Context watcher: a cancelled ctx aborts the session without a drain.
	s.watchWG.Add(1)
	go func() {
		defer s.watchWG.Done()
		select {
		case <-ctx.Done():
			s.shutdown(false, ctx.Err())
		case <-s.done:
		}
	}()
	return s, nil
}

// compileLive is the shared prologue of every live entry point (OpenLive,
// and OpenNode in node mode): it compiles the deployment plan and
// normalizes the session-level defaults — window cadence, confidence,
// backpressure high-water mark, drain deadline, and the event-time idle
// timeout. Keeping it in one place is what guarantees a multi-process
// deployment's per-tier sessions agree with a single-process session on
// what every one of those knobs means; if the two entry points normalized
// independently they could silently compile incompatible trees.
func compileLive(cfg LiveConfig) (LiveConfig, *Plan, error) {
	if cfg.Feedback != nil {
		// The adaptive loop owns the budget: members get private
		// control-plane-driven costs below, and the plan carries the
		// controller (in effective-fraction form) for validation and as
		// the canonical cost of record.
		cfg.Cost = feedbackCost{ctl: cfg.Feedback}
	}
	plan, err := CompilePlan(PlanConfig{
		Spec:        cfg.Spec,
		NewSampler:  cfg.NewSampler,
		Cost:        cfg.Cost,
		Queries:     cfg.Queries,
		Seed:        cfg.Seed,
		Partitions:  cfg.Partitions,
		RootShards:  cfg.RootShards,
		LayerShards: cfg.LayerShards,
	})
	if err != nil {
		return cfg, nil, err
	}
	if cfg.Feedback != nil && feedbackKind(plan.Queries) == query.Count {
		return cfg, nil, ErrFeedbackNeedsQuery
	}
	if cfg.Window <= 0 {
		cfg.Window = 50 * time.Millisecond
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = stats.TwoSigma
	}
	if cfg.MaxIngestLag == 0 {
		cfg.MaxIngestLag = defaultMaxIngestLag
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	if cfg.EventTime {
		if cfg.Streaming {
			return cfg, nil, ErrEventTimeStreaming
		}
		if cfg.AllowedLateness < 0 {
			cfg.AllowedLateness = 0
		}
		switch {
		case cfg.IdleTimeout == 0:
			// Default: several sweep ticks, but never less than the
			// lateness horizon — a source pausing for less than the
			// lateness it was promised must not be aged out of the
			// minimum, or its in-horizon records would be dropped by the
			// very mechanism lateness exists to protect them from.
			cfg.IdleTimeout = 4 * cfg.Window
			if cfg.AllowedLateness > cfg.IdleTimeout {
				cfg.IdleTimeout = cfg.AllowedLateness
			}
		case cfg.IdleTimeout < 0:
			// No idle exclusion: expectation placeholders for producers a
			// member never hears from would block its watermark forever.
			// Single-member groups hear every producer of their node, so
			// only they can run without the exclusion. (plan.LayerShards
			// is normalized — one entry per layer, the root entry mirrors
			// RootShards.)
			for _, shards := range plan.LayerShards {
				if shards > 1 {
					return cfg, nil, ErrEventTimeIdleSharded
				}
			}
			cfg.IdleTimeout = 0 // tracker semantics: 0 = never exclude
		}
	}
	if cfg.Checkpoint != nil && cfg.Streaming {
		return cfg, nil, ErrCheckpointStreaming
	}
	return cfg, plan, nil
}

// State returns the session's lifecycle phase.
func (s *LiveSession) State() SessionState { return SessionState(s.state.Load()) }

// Done is closed when the session reaches the closed state — by Close or by
// context cancellation. After Done, Close returns immediately with the
// final result.
func (s *LiveSession) Done() <-chan struct{} { return s.done }

// Err returns the error the session closed with: nil after a clean Close,
// the context's error after cancellation, nil while still running.
func (s *LiveSession) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.closeErr
}

// stopAll stops every group in reverse start order. Safe on never-started
// members.
func (s *LiveSession) stopAll() {
	for i := len(s.groups) - 1; i >= 0; i-- {
		s.groups[i].stop()
	}
}

// closeBus shuts the bus down if the session owns it (it created an
// in-memory bus because LiveConfig.Bus was nil). A caller-supplied bus is
// left running: on a shared backend it serves other sessions and processes,
// and shutting it down is its owner's call.
func (s *LiveSession) closeBus() {
	if s.ownsBus {
		_ = s.bus.Close()
	}
}

// ingestAllowed returns the state-specific rejection for pushes, nil while
// ingesting.
func (s *LiveSession) ingestAllowed() error {
	switch s.State() {
	case StateIngesting:
		if s.ctx.Err() != nil {
			return ErrSessionClosed
		}
		return nil
	case StateDraining:
		return ErrSessionDraining
	default:
		return ErrSessionClosed
	}
}

// markStarted pins the run's start instant to the first ingest, so Elapsed
// and throughput measure the traffic span, not time the session idled
// between OpenLive and the first push.
func (s *LiveSession) markStarted() {
	if s.started.CompareAndSwap(false, true) {
		now := time.Now().UnixNano()
		s.startNanos.Store(now)
		s.lastActivity.Store(now)
	}
}

// Ingester returns the push valve for one source slot (0 ≤ slot <
// Spec.Sources): the live analogue of "IoT source number slot". Pushes
// through the valve publish into the slot's leaf topic, are paced to
// LiveConfig.SourceRate, and block for backpressure when the leaf topic's
// unconsumed backlog exceeds LiveConfig.MaxIngestLag. The valve is cached:
// every call for the same slot returns the same *Ingester.
func (s *LiveSession) Ingester(slot int) (*Ingester, error) {
	if slot < 0 || slot >= s.plan.Spec.Sources {
		return nil, fmt.Errorf("%w: slot %d of %d sources", ErrBadSourceSlot, slot, s.plan.Spec.Sources)
	}
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	if in := s.ingesters[slot]; in != nil {
		return in, nil
	}
	src := s.plan.Sources[slot]
	leaf := s.plan.Layers[0][src.ParentIndex]
	in := &Ingester{
		s:        s,
		leafID:   leaf.ID,
		lagGroup: leaf.ID + "-in", // the leaf node's consumer group (streams source node "in")
		rate:     s.cfg.SourceRate,
		valve: valve{
			slot:      slot,
			topic:     src.Topic,
			producer:  s.bus.NewProducer(),
			bwc:       s.res.Bandwidth.Counter(src.Topic),
			perRecord: s.cfg.recordAtATime,
			from:      sourceFrom(slot),
			enc:       encoderFor(s.bus),
		},
	}
	if s.cfg.EventTime {
		in.marks = make(map[stream.SourceID]time.Time)
	}
	s.ingesters[slot] = in
	return in, nil
}

// Ingest publishes items onto sub-stream src: every item's Source is set to
// src, and the batch enters the tree at a stable leaf — src hashes to a
// source slot, so one stratum always flows through the same layer-0 node
// and per-stratum ordering is preserved. Items are stamped with the
// wall-clock publish instant (Pub, for end-to-end latency; in
// processing-time mode Ts is overwritten with the same instant, in
// event-time mode a caller-supplied Ts is preserved as the event
// timestamp). Returns ErrSessionDraining / ErrSessionClosed once the
// session has left the ingesting state.
func (s *LiveSession) Ingest(src stream.SourceID, items ...stream.Item) error {
	for i := range items {
		items[i].Source = src
	}
	in, err := s.Ingester(s.slotFor(src))
	if err != nil {
		return err
	}
	return in.Push(items...)
}

// slotFor maps a sub-stream to its source slot by stable hash.
func (s *LiveSession) slotFor(src stream.SourceID) int {
	h := fnv.New32a()
	h.Write([]byte(src))
	return int(h.Sum32() % uint32(s.plan.Spec.Sources))
}

// Windows returns a subscription to window results: every WindowResult the
// root closes from now on is delivered in order, and the channel is closed
// when the session closes. The per-subscriber buffer holds windowSubBuffer
// results; a subscriber that falls further behind misses intermediate
// results (every window remains in the final LiveResult.Windows) — the
// window ticker never blocks on a slow reader.
func (s *LiveSession) Windows() <-chan WindowResult {
	ch := make(chan WindowResult, windowSubBuffer)
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed {
		close(ch)
		return ch
	}
	s.subs = append(s.subs, ch)
	return ch
}

// publishWindow fans one closed window out to every subscriber.
func (s *LiveSession) publishWindow(win WindowResult) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed {
		return
	}
	for _, ch := range s.subs {
		select {
		case ch <- win:
		default:
			s.subDrops.Add(1)
		}
	}
}

// closeSubs ends every Windows subscription.
func (s *LiveSession) closeSubs() {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed {
		return
	}
	s.subsClosed = true
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = nil
}

// SetTarget retunes the adaptive controller's relative-error target mid-run
// — the analyst tightening or relaxing their error budget while the
// deployment serves. The change takes effect at the next window close.
// Returns ErrNotAdaptive when the session was opened without a controller.
func (s *LiveSession) SetTarget(target float64) error {
	if s.cfg.Feedback == nil {
		return ErrNotAdaptive
	}
	s.cfg.Feedback.SetTarget(target)
	return nil
}

// Target returns the adaptive controller's current relative-error target (0
// when the session is not adaptive).
func (s *LiveSession) Target() float64 {
	if s.cfg.Feedback == nil {
		return 0
	}
	return s.cfg.Feedback.Target()
}

// closeWindow runs one window-close sweep. In processing-time mode it
// merges every root member's Θ, runs the queries, and emits one window; in
// event-time mode it merges the members' watermarks and emits every event
// window the merged watermark makes due, in event-time order. Runs on the
// ticker goroutine (and once more during shutdown).
func (s *LiveSession) closeWindow(at time.Time) {
	if s.cfg.EventTime {
		s.closeEventWindows(at, s.rootWatermark(at))
		return
	}
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	var theta []stream.Batch
	for _, rp := range s.rootProcs {
		theta = append(theta, rp.closeInterval()...)
	}
	win := NewWindowResult(at, s.engine, s.plan.Queries, theta)
	for _, rp := range s.rootProcs {
		rp.recycleInterval() // the queries have run: Θ is dead
	}
	if win.SampleSize == 0 {
		return
	}
	s.emitWindowLocked(win)
}

// rootWatermark merges the root members' event-time watermarks: the
// minimum over members that have one. A member still waiting on an
// expected producer vetoes the merge (its windows would close incomplete);
// a member with nothing live — every chain idle, a shard whose partitions
// are empty past the idle timeout — has no opinion and is skipped, so it
// cannot stall event time forever.
func (s *LiveSession) rootWatermark(now time.Time) time.Time {
	var min time.Time
	for _, rp := range s.rootProcs {
		wm, blocked := rp.watermarkState(now)
		if blocked {
			return time.Time{}
		}
		if wm.IsZero() {
			continue
		}
		if min.IsZero() || wm.Before(min) {
			min = wm
		}
	}
	return min
}

// closeEventWindows advances every root member to the merged watermark,
// merges the members' closed windows by window start, and emits each merged
// window in ascending event-time order. Windows are exact: a member's
// contribution to window s can only arrive before the merged watermark
// passes s's close threshold (per-source watermark ordering), so a window
// is complete when it closes and is never emitted twice.
func (s *LiveSession) closeEventWindows(at, wm time.Time) {
	s.windowMu.Lock()
	defer s.windowMu.Unlock()
	if wm.IsZero() {
		return
	}
	for _, win := range closeRootWindows(s.rootProcs, wm, at, s.engine, s.plan) {
		s.emitWindowLocked(win)
	}
}

// closeRootWindows advances every root member to wm, merges the members'
// closed windows by window start, and runs the queries over each merged Θ;
// it returns the non-empty windows in ascending event-time order. A window's
// result carries estimates only, never items, so once the queries have run
// every member gets its closed windows' item storage back — under the
// member's own lock, which is also what its ingest path draws slabs under.
// Shared by both session forms; callers hold their windowMu.
func closeRootWindows(procs []*rootProcessor, wm, at time.Time, engine *query.Engine, plan *Plan) []WindowResult {
	merged := make(map[int64][]stream.Batch)
	closed := make([][]closedWindow, len(procs))
	for i, rp := range procs {
		closed[i] = rp.advanceTo(wm)
		for _, cw := range closed[i] {
			merged[cw.start] = append(merged[cw.start], cw.theta...)
		}
	}
	if len(merged) == 0 {
		return nil
	}
	starts := make([]int64, 0, len(merged))
	for st := range merged {
		starts = append(starts, st)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var out []WindowResult
	for _, st := range starts {
		win := NewWindowResult(at, engine, plan.Queries, merged[st])
		win.Start = time.Unix(0, st).UTC()
		win.End = win.Start.Add(plan.Spec.Window)
		if win.SampleSize > 0 {
			out = append(out, win)
		}
	}
	for i, rp := range procs {
		rp.recycle(closed[i])
	}
	return out
}

// emitWindowLocked records one closed window, steps the feedback loop, and
// fans the result out to hooks and subscribers. Callers hold windowMu.
func (s *LiveSession) emitWindowLocked(win WindowResult) {
	if s.sliding != nil {
		s.sliding.observe(&win)
	}
	s.res.Windows = append(s.res.Windows, win)
	s.windowsClosed.Add(1)
	last := win
	s.lastWindow.Store(&last)
	if s.cfg.Feedback != nil {
		// §IV-B feedback step: observe the merged window, then fan the
		// adjusted fraction out — directly to the colocated root
		// members, via the control topic to every edge member. Edge
		// windows already open keep their old fraction; the update
		// lands at their next boundary.
		f := s.cfg.Feedback.Observe(win.Result(feedbackKind(s.plan.Queries)))
		for _, dc := range s.rootCosts {
			dc.set(f)
		}
		s.ctlSeq++
		payload := encodeControl(s.ctlSeq, f)
		s.res.Bandwidth.Add(s.plan.ControlTopic, int64(len(payload)))
		// The broker outlives every window close, so the only send
		// failure mode is a deleted topic — impossible mid-run.
		_, _, _ = s.ctlProducer.Send(s.plan.ControlTopic, nil, payload)
		s.res.Fractions = append(s.res.Fractions, f)
	}
	if s.cfg.OnWindow != nil {
		s.cfg.OnWindow(win)
	}
	s.publishWindow(win)
}

// LiveSnapshot is a mid-run view of the deployment's telemetry — everything
// the final LiveResult assembles at exit, readable at any moment while
// members pump. All fields are copies or freshly-merged instruments; the
// caller owns them.
type LiveSnapshot struct {
	// State is the lifecycle phase at capture time.
	State SessionState
	// Produced / RootProcessed / DecodeErrors / LateDropped mirror the
	// LiveResult counters, at their current values.
	Produced      int64
	RootProcessed int64
	DecodeErrors  int64
	LateDropped   int64
	// LateDroppedInput is the estimated original input the late-dropped
	// records represent (LateDropped weighted by each batch's compounded
	// weight). See LiveResult.LateDroppedInput.
	LateDroppedInput float64
	// WindowsClosed counts the non-empty windows closed so far.
	WindowsClosed int
	// CheckpointErrors counts checkpoint-save failures across every member
	// since the session opened (0 when no checkpoint store is configured).
	// Saves are best-effort — a failure costs recovery fidelity, never the
	// pipeline — so a rising count is the operational signal to watch.
	CheckpointErrors int64
	// Elapsed spans the first ingest to now (to the run's end once closed).
	Elapsed time.Duration
	// Throughput is Produced/Elapsed so far.
	Throughput float64
	// Fraction is the adaptive controller's current sampling fraction (0
	// when the session is not adaptive).
	Fraction float64
	// Target is the adaptive controller's relative-error target (0 when
	// not adaptive).
	Target float64
	// Latency is a merged copy of the end-to-end latency distribution over
	// items that reached the root so far.
	Latency *metrics.Histogram
	// Bandwidth is a copy of the per-topic produce-side byte counters.
	Bandwidth map[string]int64
	// Nodes holds per-member lifetime telemetry keyed by member ID, at
	// current counter values.
	Nodes map[string]NodeTelemetry
	// SubscriberDrops counts window results dropped on full Windows()
	// subscriber buffers.
	SubscriberDrops int64

	// The fields below describe the deployment's configuration and health
	// probes — the inputs an operational surface (health checks, stall
	// detection) needs alongside the counters.

	// Window is the configured processing-time window (event-time mode:
	// the wall-clock sweep cadence).
	Window time.Duration
	// MaxIngestLag is the configured backpressure high-water mark per leaf
	// topic (negative: backpressure disabled).
	MaxIngestLag int
	// IngestLag is the total unconsumed backlog across the leaf topics at
	// capture time — how far the pushers are ahead of the pipeline.
	IngestLag int64
	// Start is the run's start instant (the first ingest; the open instant
	// until anything is pushed).
	Start time.Time
	// LastActivity is the instant of the most recent root-side processing.
	LastActivity time.Time
	// EventTime reports whether the deployment runs event-time windows.
	EventTime bool
	// Watermark is the merged root watermark (event-time mode only; zero
	// in processing-time mode, while blocked on an expected-but-unheard
	// producer, before any traffic, and once closed).
	Watermark time.Time
	// Adaptive reports whether a feedback controller is installed —
	// Fraction/Target are meaningful gauges only when true.
	Adaptive bool
	// LastWindow is the most recently emitted window result — every
	// registered query's estimate ± bound, including top-k groups, quantile
	// intervals, and sliding composites. Nil until the first non-empty
	// window closes. The ops /metrics exposition renders per-query gauges
	// from it.
	LastWindow *WindowResult
}

// Snapshot captures the deployment's telemetry mid-run: counters, latency,
// bandwidth, per-node throughput, and the adaptive fraction, all safe to
// read while every member keeps writing. Before the session API this view
// existed only once, assembled at exit.
func (s *LiveSession) Snapshot() LiveSnapshot {
	now := time.Now()
	snap := LiveSnapshot{
		State:            s.State(),
		Produced:         s.produced.Load(),
		RootProcessed:    s.rootProcessed.Load(),
		DecodeErrors:     s.decodeErrs.Load(),
		LateDropped:      s.late.items.Load(),
		LateDroppedInput: s.late.input.load(),
		Latency:          metrics.NewHistogram(),
		Bandwidth:        s.res.Bandwidth.Snapshot(),
		SubscriberDrops:  s.subDrops.Load(),
		Window:           s.cfg.Window,
		MaxIngestLag:     s.cfg.MaxIngestLag,
		EventTime:        s.cfg.EventTime,
		Adaptive:         s.cfg.Feedback != nil,
		Start:            time.Unix(0, s.startNanos.Load()),
		LastActivity:     time.Unix(0, s.lastActivity.Load()),
	}
	snap.WindowsClosed = int(s.windowsClosed.Load())
	snap.CheckpointErrors = s.ckptErrs.Load()
	snap.LastWindow = s.lastWindow.Load()
	if s.cfg.Feedback != nil {
		snap.Fraction = s.cfg.Feedback.Fraction()
		snap.Target = s.cfg.Feedback.Target()
	}
	// Closed-run fields come exclusively from the atomically-published
	// final result: s.res is off limits until shutdown stores it, so a
	// Snapshot racing Close can never read a half-assembled result.
	fin := s.final.Load()
	elapsed := now.Sub(snap.Start)
	if fin != nil {
		elapsed = fin.Elapsed
	}
	if fin == nil {
		snap.IngestLag = s.ingestLag()
		if s.cfg.EventTime {
			snap.Watermark = s.rootWatermark(now)
		}
	}
	if elapsed < 0 {
		elapsed = 0
	}
	snap.Elapsed = elapsed
	if elapsed > 0 {
		snap.Throughput = float64(snap.Produced) / elapsed.Seconds()
	}
	for _, rp := range s.rootProcs {
		snap.Latency.Merge(rp.latency)
	}
	snap.Nodes = s.nodeTelemetry(elapsed)
	return snap
}

// nodeTelemetry assembles the per-member lifetime counters at this instant,
// scaled to the given elapsed span. Shared by mid-run Snapshots and the
// final result merge, so the two can never diverge in shape.
func (s *LiveSession) nodeTelemetry(elapsed time.Duration) map[string]NodeTelemetry {
	nodes := make(map[string]NodeTelemetry, len(s.groups)+len(s.rootProcs))
	record := func(id string, st NodeStats) {
		tel := NodeTelemetry{Observed: st.Observed, Emitted: st.Emitted, Intervals: st.Intervals}
		if elapsed > 0 {
			tel.Throughput = float64(st.Observed) / elapsed.Seconds()
		}
		nodes[id] = tel
	}
	for _, g := range s.groups {
		g.mu.Lock()
		members := append([]*groupMember(nil), g.members...)
		g.mu.Unlock()
		// Dead and retired members included: their counters are the
		// last-known truth, and a restarted member replaces its dead
		// predecessor in the list under the same ID.
		for _, m := range members {
			if m.proc != nil {
				record(m.id, m.proc.stats())
			}
		}
	}
	for _, rp := range s.rootProcs {
		record(rp.id, rp.stats())
	}
	return nodes
}

// ingestLag totals the unconsumed backlog across every leaf topic — the
// records pushers have published that the layer-0 consumer groups have not
// yet committed past. The same probe the Ingester valves use for
// backpressure, summed for telemetry. Topics shared by several source slots
// count once. Returns what it has on a closed broker (no backlog left to
// report).
func (s *LiveSession) ingestLag() int64 {
	var total int64
	seen := make(map[string]struct{}, len(s.plan.Sources))
	for _, src := range s.plan.Sources {
		if _, dup := seen[src.Topic]; dup {
			continue
		}
		seen[src.Topic] = struct{}{}
		leaf := s.plan.Layers[0][src.ParentIndex]
		if g := s.groupByID[leaf.ID]; g != nil && g.isDetached() {
			continue // nothing consumes a detached node's topic
		}
		lag, err := s.bus.GroupLag(src.Topic, leaf.ID+"-in")
		if err != nil {
			continue // topic gone (bus closed) or group not yet registered
		}
		total += lag
	}
	return total
}

// drain waits until every group is caught up and the root has been idle for
// several windows (final punctuation flushes included). Every in-flight
// item is visible to this probe as exactly one of: unfetched topic lag, a
// busy member pump (records dispatch after their offsets commit), or Ψ
// buffered in an edge member awaiting its window flush — so the conjunction
// below cannot declare quiescence early no matter how the scheduler starves
// the pipeline. Read order matters: pending is sampled BEFORE the group
// lags, so a batch that flushes mid-probe is caught either in Ψ at the
// pending read or as parent-topic lag in the later group sweep (flushes
// forward before zeroing pending). A cancelled context ends the drain
// immediately (nil — the context's error is surfaced by the caller).
// A pipeline still wedged at cfg.DrainTimeout returns ErrDrainTimeout so
// the caller can mark the final result incomplete instead of pretending
// the drain succeeded.
func (s *LiveSession) drain() error {
	var deadline time.Time
	if s.cfg.DrainTimeout > 0 {
		deadline = time.Now().Add(s.cfg.DrainTimeout)
	}
	for deadline.IsZero() || time.Now().Before(deadline) {
		if s.ctx.Err() != nil {
			return nil
		}
		var lag, pending int64
		busy := false
		for _, g := range s.groups {
			if g.isDetached() {
				continue // drained and stopped; nothing in flight
			}
			pending += g.pending()
			lag += g.lag()
			busy = busy || g.busy()
		}
		idle := time.Since(time.Unix(0, s.lastActivity.Load()))
		if lag == 0 && !busy && pending == 0 && idle > 4*s.cfg.Window {
			return nil
		}
		select {
		case <-s.ctx.Done():
			return nil
		case <-time.After(s.cfg.Window / 4):
		}
	}
	return ErrDrainTimeout
}

// Close drains the deployment and returns the final merged LiveResult:
// pushes are rejected from the moment Close is called (ErrSessionDraining),
// in-flight windows reach the root, the final partial window is closed, and
// every goroutine the session owns exits. Close is idempotent — every call
// returns the same result — and safe to call after context cancellation, in
// which case it reports the context's error alongside the result assembled
// at abort time.
func (s *LiveSession) Close() (*LiveResult, error) {
	s.shutdown(true, nil)
	// Wait for the context watcher here rather than in shutdown: when the
	// watcher itself triggers the shutdown (ctx cancelled), waiting inside
	// would be the watcher waiting on its own exit.
	s.watchWG.Wait()
	return s.res, s.Err()
}

// shutdown runs the end-of-life sequence exactly once: optional drain, stop
// the ticker, stop the root group (members fully drain fetched records),
// close the final partial window, stop everything else, and merge the
// result. Concurrent callers (Close, the context watcher) block until the
// first caller finishes.
func (s *LiveSession) shutdown(drain bool, cause error) {
	s.closeOnce.Do(func() {
		s.quiesce.Store(true)
		s.state.Store(int32(StateDraining))
		// Barrier: wake pacing sleeps, then wait out every push that was
		// admitted before the state flip. After this, no Push can reach
		// the broker or the truth accumulators, so the drain probe cannot
		// miss in-flight pushes and finalize reads settled counters.
		close(s.drainCh)
		s.pushMu.Lock()
		s.pushMu.Unlock() //nolint:staticcheck // empty critical section IS the fence
		if drain {
			if s.cfg.EventTime {
				// End of stream: push the end-of-stream watermark through
				// every valve so the close wave cascades bottom-up through
				// the same per-source machinery data used, and the drain
				// probe below sees the buffered event windows flush.
				s.sendEOS()
			}
			if derr := s.drain(); derr != nil {
				// The pipeline never quiesced: assemble the result anyway,
				// but say so — a silent partial drain is indistinguishable
				// from a clean one to the caller.
				s.res.DrainTimedOut = true
				if cause == nil {
					cause = derr
				}
			}
		}
		if err := s.ctx.Err(); err != nil && cause == nil {
			cause = err // cancelled mid-Close: report it like an abort
		}
		end := time.Unix(0, s.lastActivity.Load())
		s.cancelTick()
		s.tickWG.Wait()
		s.rootGrp.stop() // root members fully drain their fetched records
		if s.cfg.EventTime {
			// Final sweep: whatever reached the root is emitted, in event
			// order — the event-time form of the final partial window.
			s.closeEventWindows(time.Now(), eosWatermark)
		} else {
			s.closeWindow(time.Now()) // final partial window
		}
		s.stopAll()
		s.closeBus()
		s.finalize(end)
		// Publish the fully-assembled result atomically BEFORE the state
		// flips to closed: concurrent Snapshots read closed-run fields only
		// through this pointer, never through s.res directly, so no
		// interleaving can observe a half-assembled result — regardless of
		// how the stores below are ordered or reordered in the future.
		s.final.Store(s.res)
		s.errMu.Lock()
		s.closeErr = cause
		s.errMu.Unlock()
		s.state.Store(int32(StateClosed))
		s.closeSubs()
		close(s.done)
	})
	<-s.done
}

// finalize merges the run's measurements into res. Runs once, after every
// group has stopped (the nodes are quiescent, so lifetime counters are
// final).
func (s *LiveSession) finalize(end time.Time) {
	res := s.res
	res.Produced = s.produced.Load()
	res.RootProcessed = s.rootProcessed.Load()
	res.DecodeErrors = s.decodeErrs.Load()
	res.LateDropped = s.late.items.Load()
	res.LateDroppedInput = s.late.input.load()
	for i := range s.truth {
		s.truth[i].mu.Lock()
		res.TruthSum += s.truth[i].v
		s.truth[i].mu.Unlock()
	}
	res.Elapsed = end.Sub(time.Unix(0, s.startNanos.Load()))
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Produced) / res.Elapsed.Seconds()
	}
	s.windowMu.Lock()
	windows := res.Windows
	s.windowMu.Unlock()
	for _, w := range windows {
		res.EstimateSum += w.Result(query.Sum).Estimate.Value
		res.EstimateCount += w.EstimatedInput
	}
	res.Nodes = s.nodeTelemetry(res.Elapsed)
	for _, rp := range s.rootProcs {
		res.Latency.Merge(rp.latency)
	}
}

// Ingester is the push valve for one source slot: it stamps, batches, paces,
// and publishes items into the slot's leaf topic. Obtain one per slot from
// LiveSession.Ingester. Pushes through one Ingester are serialized (the
// valve preserves per-stratum order); distinct slots push concurrently.
type Ingester struct {
	s        *LiveSession
	leafID   string // the layer-0 node this valve feeds (detach checks)
	lagGroup string
	rate     float64

	mu    sync.Mutex
	valve // the publishing half, shared with NodePusher (under mu)
	sent  int64
	epoch time.Time // pacing schedule origin: the valve's first push
}

// Slot returns the source slot this valve feeds.
func (in *Ingester) Slot() int { return in.slot }

// Sent returns the number of items pushed through this valve so far.
func (in *Ingester) Sent() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sent
}

// Push publishes items into the session: consecutive runs of the same
// sub-stream become one weighted batch (weight 1 — the census), keyed by
// SourceID so a stratum sticks to one partition. Every item's Pub is
// stamped with the wall-clock publish instant (end-to-end latency is
// measured from here). In processing-time mode Ts is re-stamped with the
// same instant — the pre-event-time contract; in event-time mode a
// caller-supplied Ts is the item's event timestamp and is preserved (zero
// Ts defaults to the publish instant), and the sub-stream's low watermark
// piggybacks on the published records. Items with an empty Source default
// to the slot's stratum ("source<slot>"), and ground truth is accumulated
// for the final LiveResult. Push applies backpressure — it blocks while
// the leaf topic's backlog exceeds LiveConfig.MaxIngestLag — and pacing:
// with LiveConfig.SourceRate set, it sleeps off any lead over the rate
// schedule before returning. Returns ErrSessionDraining /
// ErrSessionClosed once the session has left the ingesting state.
func (in *Ingester) Push(items ...stream.Item) error {
	s := in.s
	// The read half of the Push/Close barrier: held until the last Send so
	// shutdown's write-lock acquisition is a fence behind every admitted
	// push — none can land records or truth after the drain probe starts.
	s.pushMu.RLock()
	defer s.pushMu.RUnlock()
	if err := s.ingestAllowed(); err != nil {
		return err
	}
	if g := s.groupByID[in.leafID]; g != nil && g.isDetached() {
		// The valve's leaf node is detached (RemoveEdgeNode): nothing
		// consumes its topic, so an admitted push would strand records and
		// wedge the final drain. RemoveEdgeNode fences in-flight pushes via
		// pushMu after setting the flag, so this check is race-free.
		return fmt.Errorf("%w: %q", ErrNodeDetached, in.leafID)
	}
	if len(items) == 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.epoch.IsZero() {
		in.epoch = time.Now()
	}
	if err := in.backpressure(); err != nil {
		return err
	}
	s.markStarted()

	// Ground truth goes item by item into the slot's running sum, so the
	// per-slot total is bit-identical to the pre-session accumulator and the
	// final fold (slot order, in finalize) is deterministic.
	if err := in.publish(items, &s.truth[in.slot]); err != nil {
		return err
	}
	in.sent += int64(len(items))
	s.produced.Add(int64(len(items)))

	if in.rate > 0 {
		// Pace to the configured rate: sleep off any lead over the ideal
		// sent/rate schedule.
		ahead := time.Duration(float64(in.sent)/in.rate*float64(time.Second)) - time.Since(in.epoch)
		if ahead > 0 {
			select {
			case <-s.ctx.Done():
			case <-s.drainCh: // Close must not wait out a pacing sleep
			case <-time.After(ahead):
			}
		}
	}
	return nil
}

// backpressure blocks while the leaf topic's unconsumed backlog (records the
// leaf node's consumer group has not yet committed past) exceeds the
// session's high-water mark, so a pusher can never outrun the pipeline into
// unbounded broker memory. It re-checks the session state while waiting.
func (in *Ingester) backpressure() error {
	s := in.s
	if s.cfg.MaxIngestLag < 0 {
		return nil
	}
	wait := s.cfg.Window / 8
	if wait <= 0 {
		wait = time.Millisecond
	}
	for {
		lag, err := s.bus.GroupLag(in.topic, in.lagGroup)
		if errors.Is(err, mq.ErrUnknownTopic) {
			return ErrSessionClosed
		}
		if err != nil {
			// Unknown group means the valve's lag-group name drifted from
			// the shard-group appID scheme — a wiring bug. Surface it:
			// silently admitting the push would disable backpressure and
			// reopen the unbounded-broker-memory hole it exists to close.
			// (Remote backends also land transport failures here, which is
			// the same call: never admit a push the probe could not vouch
			// for.)
			return fmt.Errorf("core: ingest backpressure probe on %q: %w", in.topic, err)
		}
		if lag <= int64(s.cfg.MaxIngestLag) {
			return nil
		}
		if err := s.ingestAllowed(); err != nil {
			return err
		}
		select {
		case <-s.ctx.Done():
			return ErrSessionClosed
		case <-time.After(wait):
		}
	}
}

// sendEOS publishes an end-of-stream watermark heartbeat for every
// sub-stream that ever pushed through this valve — or for the slot's
// default stratum if nothing ever did: a zero-item batch carrying
// eosWatermark, which closes every remaining event window at the leaf and
// lets the close wave cascade to the root. Runs during shutdown, after the
// push barrier — no concurrent Push can interleave.
func (in *Ingester) sendEOS() {
	in.mu.Lock()
	defer in.mu.Unlock()
	srcs := make([]stream.SourceID, 0, len(in.marks)+1)
	for src := range in.marks {
		srcs = append(srcs, src)
	}
	if len(srcs) == 0 {
		// An unused valve still speaks at end of stream: every member
		// statically expects it (Plan.ExpectedProducers), and resolving
		// the expectation in-band makes the close cascade deterministic
		// instead of waiting on the idle timeout to age the placeholder.
		srcs = append(srcs, stream.SourceID(fmt.Sprintf("source%d", in.slot)))
	}
	// End-of-stream is topic-global, so it is broadcast to EVERY partition
	// rather than keyed: after a mid-run rebalance a member can hold
	// buffered windows for sub-streams whose partitions it no longer owns
	// — a keyed EOS would reach only the new owner, and the buffering
	// member (hearing nothing, all chains stranded) could never close.
	for _, src := range srcs {
		payload := heartbeat(src).Marshal()
		wm := mq.Watermark{From: in.from, At: eosWatermark}
		for part := 0; part < in.s.plan.Partitions; part++ {
			in.s.res.Bandwidth.Add(in.topic, int64(len(payload)))
			// The broker outlives the drain; a send can only fail once the
			// session is past the point of caring about these heartbeats.
			_, _ = in.producer.SendToWatermarked(in.topic, part, []byte(src), payload, wm)
		}
	}
}

// sendEOS fans the end-of-stream watermark out through every source slot
// (event-time shutdown only), creating valves for slots that were never
// pushed so that every expected producer chain terminates explicitly.
func (s *LiveSession) sendEOS() {
	for slot := 0; slot < s.plan.Spec.Sources; slot++ {
		in, err := s.Ingester(slot)
		if err != nil {
			continue // unreachable: slots come from the plan
		}
		in.sendEOS()
	}
}

// feed is the built-in generator ingestion client the RunLive wrapper uses:
// it produces items total items, split across the tree's source slots — the
// remainder of items/Sources spread one item each over the low-indexed
// slots, so exactly items are produced — pushing each slot's stream through
// the same Ingester valve external clients use. Blocks until every slot's
// quota is pushed or the session stops accepting.
func (s *LiveSession) feed(source func(i int) workload.Source, items int64) {
	spec := s.plan.Spec
	perSource := items / int64(spec.Sources)
	remainder := items % int64(spec.Sources)
	chunk := s.cfg.Window / 4
	if chunk <= 0 {
		chunk = s.cfg.Window
	}
	var wg sync.WaitGroup
	for slot := 0; slot < spec.Sources; slot++ {
		quota := perSource
		if int64(slot) < remainder {
			quota++
		}
		ing, err := s.Ingester(slot)
		if err != nil {
			continue // unreachable: slots come from the plan
		}
		wg.Add(1)
		go func(slot int, quota int64, ing *Ingester) {
			defer wg.Done()
			gen := source(slot)
			now := time.Now()
			var sent int64
			for sent < quota {
				batch := gen.Generate(now, chunk)
				now = now.Add(chunk)
				if len(batch) == 0 {
					continue
				}
				if int64(len(batch)) > quota-sent {
					batch = batch[:quota-sent]
				}
				if err := ing.Push(batch...); err != nil {
					return // session draining/closed: stop producing
				}
				sent += int64(len(batch))
			}
		}(slot, quota, ing)
	}
	wg.Wait()
}
