package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/vclock"
)

// engine is the one session engine. OpenNode runs the slice of the compiled
// plan a NodeTier names against a shared bus; OpenLive runs every tier over a
// bus of its own; RunSim runs every tier, source valves included, in virtual
// time.
// Every capability lives here and acts on what the tier hosts: topics
// created, the tier's shard groups built with one edge- and one root-member
// constructor (addEdgeGroup, addRootGroup) and started, the run counters the
// members write and the bandwidth account, the root watermark merge and emit
// path with the feedback step, the snapshot, the quiescence probe, the push
// valves and their truth fold, the elastic verbs (elastic.go) — and one
// lifecycle: one push fence (stopAdmitting), one drain loop (settle), one
// close sequence (shutdown) and one context watcher.
//
// Every instant the engine and its members read comes from clock: the wall
// clock, or — in a driven engine (LiveConfig.sim, set by RunSim) — the
// simulator's, whose event loop steps every member runtime on its one thread
// (simLoop, sim.go).
//
// Root windows close on the root members' own pumps (rootProcessor), which
// race into closeRoot. One locking rule keeps them apart: windowMu is taken
// before a root member's mu, never while holding one — a member releases its
// mu before it closes.
type engine struct {
	cfg   LiveConfig
	plan  *Plan
	bus   transport.Bus
	tier  NodeTier
	eval  *query.Engine
	clock vclock.Clock

	groups    []*shardGroup          // this process's groups, bottom-up, root last
	groupByID map[string]*shardGroup // node ID → its group (root included)
	rootGrp   *shardGroup            // nil unless the tier runs the root
	rootProcs []*rootProcessor
	rootCosts []*dynamicCost

	// ckptErrs counts checkpoint-save failures across every member
	// (LiveSnapshot.CheckpointErrors) — counted, never fatal.
	ckptErrs atomic.Int64

	// res is the run's result as it is assembled: Latency and Bandwidth from
	// the start, Windows and Fractions under windowMu, the counters at
	// finalize. final publishes it atomically once finalize has fully
	// assembled it (nil until then); Snapshot reads closed-run fields only
	// through final, so a Snapshot racing Close never sees half a result.
	res   *LiveResult
	final atomic.Pointer[LiveResult]

	// Run-wide counters the members write, read by Snapshot at any time.
	late          lateCounter  // records past the lateness horizon
	decodeErrs    atomic.Int64 // data records that failed to decode
	rootProcessed atomic.Int64 // items the root members aggregated
	lastActivity  atomic.Int64 // unix nanos (clock) of the last root-side processing
	// quiesce silences the members' keepalives once no further input can
	// arrive (see samplingProcessor.keepalive): from the drain's start, or
	// from the end of a simulated stream.
	quiesce atomic.Bool

	// Run-wide counters written by the valves.
	produced   atomic.Int64
	startNanos atomic.Int64 // run start: first push (open time until then)
	started    atomic.Bool

	// The root emit path. windowMu serializes window closes and guards
	// res.Windows / res.Fractions. windowsClosed mirrors len(res.Windows)
	// atomically so Snapshot never needs windowMu — the OnWindow hook runs
	// under it, and a hook that reads a Snapshot must not self-deadlock.
	windowMu      sync.Mutex
	windowsClosed atomic.Int64
	rootClose     rootMerge          // closeEventWindows' scratch, under windowMu
	ctlProducer   transport.Producer // feedback runs only
	ctlSeq        uint64
	// sliding composes pane estimates when LiveConfig.Slide ≥ 2 (nil
	// otherwise); driven only under windowMu by emitWindowLocked.
	sliding *slidingState
	// lastWindow publishes the most recently emitted window for Snapshot.
	lastWindow atomic.Pointer[WindowResult]
	// atEOS runs on a root member's pump once the merged root watermark
	// carries the end-of-stream promise, after the final windows are out
	// (node mode's completion marker; nil in process, where Close ends the
	// stream).
	atEOS func()

	// Windows() subscriptions.
	subMu      sync.Mutex
	subs       []chan WindowResult
	subsClosed bool
	subDrops   atomic.Int64

	// Push valves, one per source slot, created on demand; lags holds one
	// carried lag per leaf topic, shared by every valve on it. truth is the
	// per-slot ground truth the valves sum (TruthSum), allocated on an ingest
	// tier only.
	valveMu sync.Mutex
	valves  []*Ingester
	lags    map[string]*carriedLag
	truth   []paddedFloat

	// Lifecycle. drainCh is closed when the session stops admitting pushes,
	// waking pacing sleeps and backpressure waits; closed when the close
	// sequence has run; watched when the context watcher has exited.
	state     atomic.Int32
	ctx       context.Context
	drainCh   chan struct{}
	admitOnce sync.Once
	closeOnce sync.Once
	closed    chan struct{}
	watched   chan struct{}

	// closeErr is the error the session closed with (under errMu).
	errMu    sync.Mutex
	closeErr error
	// ownsBus: OpenLive created the bus, and the close sequence closes it; a
	// caller-supplied bus is left running — it may serve other processes.
	ownsBus bool
	// elMu serializes membership changes (Add/Remove/Kill/Restart member,
	// edge-node detach/attach); per-group mu still guards the member lists
	// against the concurrent readers (drain probe, telemetry, valves).
	elMu sync.Mutex
}

// paddedFloat is one slot's ground-truth sum, written only under its valve's
// mutex and padded to a cache line of its own so the slots don't
// false-share.
type paddedFloat struct {
	v float64
	_ [56]byte
}

// everyTier is the tier OpenLive and RunSim run: every edge layer, the root,
// and the source valves.
func everyTier(spec topology.TreeSpec) NodeTier {
	tier := NodeTier{Root: true, Ingest: true}
	for l := 0; l < spec.RootLayer(); l++ {
		tier.Layers = append(tier.Layers, l)
	}
	return tier
}

// openEngine creates the plan's topics on cfg.Bus and builds and starts the
// shard groups tier selects, with atEOS run once the merged root watermark
// reaches end of stream. It returns as soon as the groups are pumping; on
// failure every group it started is stopped again.
func openEngine(ctx context.Context, cfg LiveConfig, plan *Plan, tier NodeTier, ownsBus bool, atEOS func()) (*engine, error) {
	bus := cfg.Bus
	e := &engine{
		cfg:     cfg,
		plan:    plan,
		bus:     bus,
		clock:   vclock.WallClock{},
		tier:    tier,
		ownsBus: ownsBus,
		eval:    query.NewEngine(query.WithConfidence(cfg.Confidence)),
		res: &LiveResult{
			Latency:   metrics.NewHistogram(),
			Bandwidth: metrics.NewBandwidthAccount(),
		},
		groupByID: make(map[string]*shardGroup),
		sliding:   newSlidingState(cfg.Slide, plan.Spec.Window, cfg.Confidence, plan.Queries),
		atEOS:     atEOS,
		valves:    make([]*Ingester, plan.Spec.Sources),
		lags:      make(map[string]*carriedLag),
		ctx:       ctx,
		drainCh:   make(chan struct{}),
		closed:    make(chan struct{}),
		watched:   make(chan struct{}),
	}
	if tier.Ingest {
		e.truth = make([]paddedFloat, plan.Spec.Sources)
	}
	if cfg.sim != nil {
		e.clock = cfg.sim
	}
	now := e.clock.Now()
	e.startNanos.Store(now.UnixNano())
	e.lastActivity.Store(now.UnixNano())

	// The plan names every topic and fixes its partition count; create them
	// before any runtime subscribes. Creation is idempotent across bus
	// clients at equal partition counts, so processes sharing a bus race
	// their startups safely and no tier depends on another being up first.
	// Consumed records are kept for replay only where a checkpoint store can
	// replay them (RestartMember refuses without one); otherwise a partition
	// keeps the least CreateTopic takes, and frees what its readers are done
	// with.
	retain := 1
	if cfg.Checkpoint != nil {
		retain = 4096
	}
	for _, td := range plan.Topics() {
		if err := bus.CreateTopic(td.Name, td.Partitions, retain); err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*engine, error) {
		e.stopAll()
		return nil, err
	}
	for _, l := range tier.Layers {
		for _, desc := range plan.Layers[l] {
			if err := e.addEdgeGroup(desc, now); err != nil {
				return fail(err)
			}
		}
	}
	if tier.Root {
		if err := e.addRootGroup(now); err != nil {
			return fail(err)
		}
		if cfg.corruptRoot > 0 {
			// Test hook: poison the root topic before anything consumes it.
			p := bus.NewProducer()
			for i := 0; i < cfg.corruptRoot; i++ {
				if err := p.SendBatch(plan.Root().Topic, []transport.Record{{Value: []byte{0xFF, 0xBA, 0xD0}}}); err != nil {
					return fail(err)
				}
			}
		}
	}
	for _, g := range e.groups {
		if err := g.start(); err != nil {
			return fail(err)
		}
	}
	if e.controller() != nil {
		e.ctlProducer = bus.NewProducer()
	}
	return e, nil
}

// addEdgeGroup instantiates one compiled edge node as a consumer group of
// desc.Shards members. Every process builds a node's members the same way —
// same member IDs, seed lineages, FixedBudget split and watermark
// expectations — which is what makes a multi-process run's windows equal a
// single-process run's. Adaptive runs give every member a private dynamic
// cost plus a standalone control consumer (the root tier publishes, wherever
// it runs, and the members drain at window close); with a checkpoint store
// every member saves into this process's store. A simulated streaming tree
// (LiveConfig.streaming) runs the forwarding member instead.
func (e *engine) addEdgeGroup(desc NodeDesc, now time.Time) error {
	cfg, plan := e.cfg, e.plan
	// FixedBudget groups get a dynamic splitter so membership changes
	// re-split the node's total cap across however many members are live.
	// Initial members join in shard order, so the initial shares reproduce
	// the static NewNodeShardCost split exactly. Feedback runs own their
	// budget already (control-plane fractions are input-relative and compose
	// at any member count).
	var gb *groupBudget
	if fb, ok := cfg.Cost.(FixedBudget); ok && cfg.Feedback == nil {
		gb = newGroupBudget(fb.Size)
	}
	var memberErr error
	grp, err := newShardGroup(e.bus, desc, e.runtimeOptions(), func(shard int) (streams.Processor, *samplingProcessor) {
		mk := func() *Node { return plan.NewNodeShard(desc, shard) }
		if cfg.streaming {
			return &forwardingProcessor{id: memberID(desc, shard), node: mk(), wt: e.newTracker(desc, stream.NewSourceTable(), now)}, nil
		}
		if gb != nil {
			mb := gb.join(memberID(desc, shard))
			mk = func() *Node { return plan.NewNodeShardCost(desc, shard, mb) }
		}
		var dc *dynamicCost
		if cfg.Feedback != nil {
			dc = newDynamicCost(cfg.Feedback.Fraction())
			mk = func() *Node { return plan.NewNodeShardCost(desc, shard, dc) }
		}
		sp := &samplingProcessor{
			id:         memberID(desc, shard),
			quiesce:    &e.quiesce,
			decodeErrs: &e.decodeErrs,
			ew:         e.newWindows(mk),
			ckpt:       cfg.Checkpoint,
			ckptErrs:   &e.ckptErrs,
			saveEvery:  cfg.Window,
			// Private lock-free byte counter for the member's parent link;
			// the account folds it in at read time.
			bwc: e.res.Bandwidth.Counter(desc.ParentTopic),
		}
		sp.wt = e.newTracker(desc, sp.ew.strata, now)
		if dc != nil {
			sp.cost = dc
			c, cerr := e.bus.NewConsumer(plan.ControlTopic)
			if cerr != nil && memberErr == nil {
				memberErr = cerr // keep the first failure; later shards must not clobber it
			}
			sp.control = c
		}
		if plan.Partitions > 1 {
			prod := e.bus.NewProducer()
			beat := []transport.Record{{Value: heartbeat(stream.SourceID(sp.id)).Marshal()}}
			sp.broadcast = func(wm mq.Watermark) {
				beat[0].Watermark = wm
				broadcast(prod, desc.ParentTopic, plan.Partitions, sp.bwc, beat...)
			}
		}
		return sp, sp
	})
	if err == nil {
		err = memberErr
	}
	if err != nil {
		return err
	}
	grp.budget = gb
	grp.changeOffsets = make([]int64, plan.Partitions)
	e.groups = append(e.groups, grp)
	e.groupByID[desc.ID] = grp
	return nil
}

// addRootGroup instantiates the root consumer group: RootShards members
// split the root topic's partitions, each aggregating its share under its own
// lock, and closeRoot merges every member's Θ and runs the queries once. The
// controller is colocated with the root (the paper's datacenter), so adaptive
// root members take fraction updates directly at the merge instead of
// round-tripping through the control topic.
func (e *engine) addRootGroup(now time.Time) error {
	cfg, plan := e.cfg, e.plan
	e.rootProcs = make([]*rootProcessor, plan.RootShards)
	grp, err := newShardGroup(e.bus, plan.Root(), e.runtimeOptions(), func(shard int) (streams.Processor, *samplingProcessor) {
		mk := func() *Node { return plan.NewRootShard(shard) }
		if cfg.Feedback != nil {
			dc := newDynamicCost(cfg.Feedback.Fraction())
			e.rootCosts = append(e.rootCosts, dc)
			mk = func() *Node { return plan.NewNodeShardCost(plan.Root(), shard, dc) }
		}
		p := &rootProcessor{
			id:           memberID(plan.Root(), shard),
			processed:    &e.rootProcessed,
			decodeErrs:   &e.decodeErrs,
			lastActivity: &e.lastActivity,
			closeRoot:    e.closeRoot,
			work:         cfg.RootWork,
			// Private histogram: shards must not serialize on one mutex in
			// the per-item hot path. Merged into res.Latency at finalize (and
			// into fresh histograms by mid-run Snapshots).
			latency: metrics.NewHistogram(),
			ew:      e.newWindows(mk),
		}
		p.wt = e.newTracker(plan.Root(), p.ew.strata, now)
		e.rootProcs[shard] = p
		return p, nil
	})
	if err != nil {
		return err
	}
	grp.changeOffsets = make([]int64, plan.Partitions)
	e.rootGrp = grp
	e.groups = append(e.groups, grp)
	e.groupByID[plan.Root().ID] = grp
	return nil
}

// runtimeOptions returns the options of every member runtime the engine
// builds: a driven engine's runtimes run on its clock, stepped by its loop,
// and the equivalence suite's reference dispatches a record at a time.
func (e *engine) runtimeOptions() []streams.RuntimeOption {
	var opts []streams.RuntimeOption
	if e.cfg.sim != nil {
		opts = append(opts, streams.Driven(e.cfg.sim))
	}
	if e.cfg.recordAtATime {
		opts = append(opts, streams.WithRecordAtATime())
	}
	return opts
}

// newWindows builds one member's Ψ store: a sampling node per event window of
// the plan's length. mk seeds each window identically from the plan's
// lineage, so a window's sampling is independent of how many windows preceded
// it. Ingest-stamped windows (EventTime off) take in stamps that are never
// late (eventWindows.ingestStamped).
func (e *engine) newWindows(mk func() *Node) *eventWindows {
	ew := newEventWindows(e.plan.Spec.Window, e.cfg.AllowedLateness, &e.late, mk)
	ew.ingestStamped = !e.cfg.EventTime
	return ew
}

// newTracker builds one member's watermark tracker for node desc, over
// strata, the stratum table of the member's decoder (its window store's): the
// slot a parsed header carries indexes both. Every producer the plan says can
// feed the node holds the watermark until heard from (or idled out) — sibling
// pumps race, and a producer must never be invisible to the minimum just
// because it is slow. Only a leaf's producers are valves, stamping per
// sub-stream; above it they are members, bounded by their lane floors alone.
func (e *engine) newTracker(desc NodeDesc, strata *stream.SourceTable, now time.Time) *watermarkTracker {
	wt := newWatermarkTracker(e.cfg.IdleTimeout, strata)
	wt.floorsOnly = desc.Layer > 0
	for _, from := range e.plan.ExpectedProducers(desc) {
		wt.expect(from, now)
	}
	return wt
}

// stopAll stops every group in reverse start order. Safe on never-started
// members.
func (e *engine) stopAll() {
	for i := len(e.groups) - 1; i >= 0; i-- {
		e.groups[i].stop()
	}
}

// stop ends the engine in order: the root group — whose members fully drain
// the records they fetched and close no window after — then one final close
// of everything that reached the root, to the end-of-stream watermark, then
// every other group.
func (e *engine) stop() {
	if e.rootGrp != nil {
		e.rootGrp.stop()
		e.closeEventWindows(e.clock.Now(), eosWatermark)
	}
	e.stopAll()
}

// stopAdmitting is the one push fence, run once: the state goes to draining,
// drainCh closes (waking pacing sleeps and backpressure waits), and each
// valve's mutex is taken in turn. Push reads the state under that mutex, so
// once the last one has been taken no push admitted before the flip is still
// in flight: a drain probe cannot miss one, and none can reach the broker,
// the counters or the truth sums after finalize. With eos every slot's valve
// — created if it was never pushed, so every expected producer chain
// terminates in-band — sends the end of stream while it holds the mutex.
// Concurrent callers wait for the first.
func (e *engine) stopAdmitting(eos bool) {
	e.admitOnce.Do(func() {
		e.state.Store(int32(StateDraining))
		close(e.drainCh)
		if !eos {
			e.fence(nil)
			return
		}
		for slot := 0; slot < e.plan.Spec.Sources; slot++ {
			if in, err := e.ingester(slot); err == nil {
				in.sendEOS()
			}
		}
	})
}

// fence waits out every push in flight through the valves feeding leaf —
// every valve when leaf is nil — after the caller has changed what Push
// checks under the valve's mutex (the state, the leaf's detach flag). A valve
// created after the fence reads the change on its first push.
func (e *engine) fence(leaf *shardGroup) {
	e.valveMu.Lock()
	valves := append([]*Ingester(nil), e.valves...)
	e.valveMu.Unlock()
	for _, in := range valves {
		if in != nil && (leaf == nil || in.leaf == leaf) {
			in.mu.Lock()
			in.mu.Unlock() //nolint:staticcheck // empty critical section IS the fence
		}
	}
}

// drain is the session drain: keepalives go quiet — which also arms the
// shutdown backstop in samplingProcessor.Punctuate — and settle waits for the
// whole engine to be quiescent. Quiesce changes every edge member's deadline
// without a record, so each pump is woken (a Sync) to re-read it.
func (e *engine) drain(ctx context.Context) error {
	e.quiesce.Store(true)
	for _, g := range e.groups {
		for _, m := range g.live() {
			if m.proc != nil {
				_ = m.rt.Sync(func() {})
			}
		}
	}
	return e.settle(ctx, e.quiescent)
}

// settle is the one drain loop. It returns nil once quiet has held for three
// consecutive probes Window/4 apart — so a flush racing one probe cannot
// fake it — or once the session has closed; ctx's error if ctx ends first;
// and ErrDrainTimeout once LiveConfig.DrainTimeout has passed (never, when
// that is negative).
func (e *engine) settle(ctx context.Context, quiet func() bool) error {
	var deadline time.Time
	if e.cfg.DrainTimeout > 0 {
		deadline = time.Now().Add(e.cfg.DrainTimeout)
	}
	probe := time.NewTicker(max(e.cfg.Window/4, time.Millisecond))
	defer probe.Stop()
	for clean := 0; ; {
		if !quiet() {
			clean = 0
		} else if clean++; clean == 3 {
			return nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return ErrDrainTimeout
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-e.closed:
			return nil
		case <-probe.C:
		}
	}
}

// shutdown is the one close sequence, run once after the fence: stop the
// engine and finalize the result — the run ends at the root's last activity
// on a root tier, now elsewhere — then record cause, the drain's verdict, as
// the session's error: a timed-out drain also marks the result DrainTimedOut,
// since a silent partial drain would be indistinguishable from a clean one,
// and with no verdict a cancelled context reports like an abort. Then close
// the bus if the session owns it, publish the result as final — before the
// state says closed, so a Snapshot racing Close never sees it half assembled
// — end every Windows subscription and close closed. Concurrent callers wait
// for the first.
func (e *engine) shutdown(cause error) {
	e.closeOnce.Do(func() {
		e.stop()
		end := e.clock.Now()
		if e.tier.Root {
			end = time.Unix(0, e.lastActivity.Load())
		}
		e.finalize(end)
		if errors.Is(cause, ErrDrainTimeout) {
			e.res.DrainTimedOut = true
		}
		if cause == nil {
			cause = e.ctx.Err()
		}
		if e.ownsBus {
			_ = e.bus.Close()
		}
		e.errMu.Lock()
		e.closeErr = cause
		e.errMu.Unlock()
		e.final.Store(e.res)
		e.state.Store(int32(StateClosed))
		e.closeSubs()
		close(e.closed)
	})
}

// watch aborts the session if its context ends before it closes: the fence,
// no drain, then the close sequence. The watcher closes watched as it exits;
// a session's Close waits for that, so no goroutine outlives Close.
func (e *engine) watch() {
	go func() {
		defer close(e.watched)
		select {
		case <-e.ctx.Done():
			e.stopAdmitting(false)
			e.shutdown(nil)
		case <-e.closed:
		}
	}()
}

// State returns the session's lifecycle phase.
func (e *engine) State() SessionState { return SessionState(e.state.Load()) }

// ingestAllowed returns the state-specific rejection for pushes, nil while
// ingesting.
func (e *engine) ingestAllowed() error {
	switch e.State() {
	case StateIngesting:
		if e.ctx.Err() != nil {
			return ErrSessionClosed
		}
		return nil
	case StateDraining:
		return ErrSessionDraining
	default:
		return ErrSessionClosed
	}
}

// markStarted pins the run's start instant to the first push, so Elapsed and
// throughput measure the traffic span, not time the session idled before it.
func (e *engine) markStarted() {
	if e.started.CompareAndSwap(false, true) {
		now := e.clock.Now().UnixNano()
		e.startNanos.Store(now)
		e.lastActivity.Store(now)
	}
}

// closeRoot is the root's one window close, run on a root member's pump at
// clock reading at: it merges the root members' watermarks and emits every
// event window the merged watermark makes due, in event-time order — and once
// that watermark carries the end-of-stream promise, empties every member and
// runs atEOS. Root pumps race into it; windowMu serializes their closes, and
// a close to a bound already passed closes nothing.
func (e *engine) closeRoot(at time.Time) {
	wm := mergedWatermark(e.rootProcs, at)
	e.closeEventWindows(at, wm)
	if e.atEOS != nil && !wm.Before(eosHorizon) {
		// Every chain has promised it is done forever, so one final advance
		// to the absolute bound empties every member.
		e.closeEventWindows(at, eosWatermark)
		e.atEOS()
	}
}

// mergedWatermark merges the root members' watermarks: the minimum
// over members that have one. A member still waiting on an expected producer
// vetoes the merge (its windows would close incomplete); a member with
// nothing live — every chain idle, a shard whose partitions are empty past
// the idle timeout — has no opinion and is skipped, so it cannot stall event
// time forever.
func mergedWatermark(procs []*rootProcessor, now time.Time) time.Time {
	var min time.Time
	for _, rp := range procs {
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
func (e *engine) closeEventWindows(at, wm time.Time) {
	e.windowMu.Lock()
	defer e.windowMu.Unlock()
	if wm.IsZero() {
		return
	}
	for _, win := range e.rootClose.close(e.rootProcs, wm, at, e.eval, e.plan) {
		e.emitWindowLocked(win)
	}
}

// rootMerge is the scratch for merging the root members' closed windows,
// kept across closes so a close that emits windows allocates only their
// results.
type rootMerge struct {
	closed [][]closedWindow // per member: what advanceTo returned
	wins   []rootWindow     // merged Θ per window start
	out    []WindowResult
}

// rootWindow is one window's Θ merged across the root members.
type rootWindow struct {
	start int64
	theta []stream.Batch
}

// close advances every root member to wm, merges the members' closed
// windows by window start, and runs the queries over each merged Θ; it
// returns the non-empty windows in ascending event-time order, valid until
// the next close. A window's result carries estimates only, never items, so
// once the queries have run every member gets its closed windows' item
// storage back — under the member's own lock, which is also what its ingest
// path draws slabs under. Callers hold windowMu.
func (m *rootMerge) close(procs []*rootProcessor, wm, at time.Time, eval *query.Engine, plan *Plan) []WindowResult {
	if cap(m.closed) < len(procs) {
		m.closed = make([][]closedWindow, len(procs))
	}
	m.closed = m.closed[:len(procs)]
	wins := m.wins[:0]
	for i, rp := range procs {
		m.closed[i] = rp.advanceTo(wm)
		for _, cw := range m.closed[i] {
			j := 0
			for j < len(wins) && wins[j].start != cw.start {
				j++
			}
			if j == len(wins) {
				if j < cap(wins) {
					wins = wins[:j+1] // the slot's theta storage serves again
				} else {
					wins = append(wins, rootWindow{})
				}
				wins[j].start, wins[j].theta = cw.start, wins[j].theta[:0]
			}
			wins[j].theta = append(wins[j].theta, cw.theta...)
		}
	}
	slices.SortFunc(wins, func(a, b rootWindow) int { return cmp.Compare(a.start, b.start) })
	out := m.out[:0]
	for _, w := range wins {
		win := NewWindowResult(at, eval, plan.Queries, w.theta)
		win.Start = time.Unix(0, w.start).UTC()
		win.End = win.Start.Add(plan.Spec.Window)
		if win.SampleSize > 0 {
			out = append(out, win)
		}
		clear(w.theta)
	}
	for i, rp := range procs {
		rp.recycle(m.closed[i])
		m.closed[i] = nil
	}
	m.wins, m.out = wins, out
	return out
}

// emitWindowLocked is the one emit path: it composes the sliding estimates,
// records the window, steps the feedback loop, and fans the result out to
// the OnWindow hook and the subscribers. Callers hold windowMu.
func (e *engine) emitWindowLocked(win WindowResult) {
	if e.sliding != nil {
		e.sliding.observe(&win)
	}
	e.res.Windows = append(e.res.Windows, win)
	e.windowsClosed.Add(1)
	last := win
	e.lastWindow.Store(&last)
	if ctl := e.controller(); ctl != nil {
		// §IV-B feedback step: observe the merged window, then fan the
		// adjusted fraction out — directly to the colocated root members,
		// via the control topic to every edge member. Edge windows already
		// open keep their old fraction; the update lands at their next
		// boundary.
		f := ctl.Observe(win.Result(feedbackKind(e.plan.Queries)))
		for _, dc := range e.rootCosts {
			dc.set(f)
		}
		e.ctlSeq++
		payload := encodeControl(e.ctlSeq, f)
		e.res.Bandwidth.Add(e.plan.ControlTopic, int64(len(payload)))
		// The broker outlives every window close, so the only send failure
		// mode is a deleted topic — impossible mid-run.
		_ = e.ctlProducer.SendBatch(e.plan.ControlTopic, []transport.Record{{Value: payload}})
		e.res.Fractions = append(e.res.Fractions, f)
	}
	if e.cfg.OnWindow != nil {
		e.cfg.OnWindow(win)
	}
	e.publishWindow(win)
}

// controller is the feedback controller this tier steps: LiveConfig.Feedback
// where the tier runs the root, nil elsewhere — an edge tier's members take
// the root's fractions from the control topic, and its own controller stays
// unstepped.
func (e *engine) controller() *FeedbackController {
	if !e.tier.Root {
		return nil
	}
	return e.cfg.Feedback
}

// SetTarget retunes the adaptive controller's relative-error target mid-run
// — the analyst tightening or relaxing their error budget while the
// deployment serves. The change takes effect at the next window close.
// Returns ErrNotAdaptive when the session was opened without a controller or
// on a tier without the root.
func (e *engine) SetTarget(target float64) error {
	ctl := e.controller()
	if ctl == nil {
		return ErrNotAdaptive
	}
	ctl.SetTarget(target)
	return nil
}

// Target returns the adaptive controller's current relative-error target (0
// when the session is not adaptive or the tier runs no root).
func (e *engine) Target() float64 {
	if ctl := e.controller(); ctl != nil {
		return ctl.Target()
	}
	return 0
}

// Windows returns a subscription to window results: every WindowResult the
// root closes from now on is delivered in order, and the channel is closed
// when the session closes. The per-subscriber buffer holds windowSubBuffer
// results; a subscriber that falls further behind misses intermediate
// results (every window remains in the final result) — a root member's
// pump never blocks on a slow reader.
func (e *engine) Windows() <-chan WindowResult {
	ch := make(chan WindowResult, windowSubBuffer)
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.subsClosed {
		close(ch)
		return ch
	}
	e.subs = append(e.subs, ch)
	return ch
}

// publishWindow fans one closed window out to every subscriber.
func (e *engine) publishWindow(win WindowResult) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.subsClosed {
		return
	}
	for _, ch := range e.subs {
		select {
		case ch <- win:
		default:
			e.subDrops.Add(1)
		}
	}
}

// closeSubs ends every Windows subscription (once, in the close sequence).
func (e *engine) closeSubs() {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	e.subsClosed = true
	for _, ch := range e.subs {
		close(ch)
	}
	e.subs = nil
}

// Snapshot captures the session's telemetry mid-run: counters, latency,
// bandwidth, per-member throughput, the last window and the adaptive
// fraction, all safe to read while every member keeps writing. Fields
// another tier owns read zero on a node session: a leaf process reports no
// windows and no fraction, a root process no produced count. Once the
// session has closed, Elapsed and Throughput are the final result's.
func (e *engine) Snapshot() LiveSnapshot {
	now := e.clock.Now()
	snap := LiveSnapshot{
		State:            e.State(),
		Produced:         e.produced.Load(),
		RootProcessed:    e.rootProcessed.Load(),
		DecodeErrors:     e.decodeErrs.Load(),
		LateDropped:      e.late.items.Load(),
		LateDroppedInput: e.late.input.load(),
		WindowsClosed:    int(e.windowsClosed.Load()),
		CheckpointErrors: e.ckptErrs.Load(),
		Latency:          metrics.NewHistogram(),
		Bandwidth:        e.res.Bandwidth.Snapshot(),
		SubscriberDrops:  e.subDrops.Load(),
		Window:           e.cfg.Window,
		MaxIngestLag:     e.cfg.MaxIngestLag,
		EventTime:        e.cfg.EventTime,
		Adaptive:         e.controller() != nil,
		Start:            time.Unix(0, e.startNanos.Load()),
		LastActivity:     time.Unix(0, e.lastActivity.Load()),
		LastWindow:       e.lastWindow.Load(),
	}
	if ctl := e.controller(); ctl != nil {
		snap.Fraction = ctl.Fraction()
		snap.Target = ctl.Target()
	}
	elapsed := now.Sub(snap.Start)
	if fin := e.final.Load(); fin != nil {
		elapsed = fin.Elapsed
	} else {
		snap.IngestLag = e.ingestLag()
		if e.tier.Root {
			snap.Watermark = mergedWatermark(e.rootProcs, now)
		}
	}
	if elapsed < 0 {
		elapsed = 0
	}
	snap.Elapsed = elapsed
	if elapsed > 0 {
		snap.Throughput = float64(snap.Produced) / elapsed.Seconds()
	}
	for _, rp := range e.rootProcs {
		snap.Latency.Merge(rp.latency)
	}
	snap.Nodes = e.nodeTelemetry(elapsed)
	return snap
}

// nodeTelemetry assembles the per-member lifetime counters at this instant,
// scaled to the given elapsed span. Shared by mid-run Snapshots and the
// final result, so the two can never diverge in shape.
func (e *engine) nodeTelemetry(elapsed time.Duration) map[string]NodeTelemetry {
	nodes := make(map[string]NodeTelemetry, len(e.groups)+len(e.rootProcs))
	for _, g := range e.groups {
		g.mu.Lock()
		members := append([]*groupMember(nil), g.members...)
		g.mu.Unlock()
		// Dead and retired members included: their counters are the
		// last-known truth, and a restarted member replaces its dead
		// predecessor in the list under the same ID. The root group is not
		// elastic: its shard i is rootProcs[i]. A forwarding member keeps no
		// counters.
		for _, m := range members {
			var st NodeStats
			switch {
			case g == e.rootGrp:
				st = e.rootProcs[m.shard].stats()
			case m.proc != nil:
				st = m.proc.stats()
			}
			tel := NodeTelemetry{Observed: st.Observed, Emitted: st.Emitted, Intervals: st.Intervals, Wakeups: m.rt.Wakeups()}
			if elapsed > 0 {
				tel.Throughput = float64(st.Observed) / elapsed.Seconds()
			}
			nodes[m.id] = tel
		}
	}
	return nodes
}

// finalize merges the run's measurements into res once every group has
// stopped (the members are quiescent, so lifetime counters are final). The
// caller publishes res through final.
func (e *engine) finalize(end time.Time) {
	res := e.res
	res.Produced = e.produced.Load()
	res.RootProcessed = e.rootProcessed.Load()
	res.DecodeErrors = e.decodeErrs.Load()
	res.LateDropped = e.late.items.Load()
	res.LateDroppedInput = e.late.input.load()
	res.Elapsed = end.Sub(time.Unix(0, e.startNanos.Load()))
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Produced) / res.Elapsed.Seconds()
	}
	e.windowMu.Lock()
	windows := res.Windows
	e.windowMu.Unlock()
	for _, w := range windows {
		res.EstimateSum += w.Result(query.Sum).Estimate.Value
		res.EstimateCount += w.EstimatedInput
	}
	res.Nodes = e.nodeTelemetry(res.Elapsed)
	for _, rp := range e.rootProcs {
		res.Latency.Merge(rp.latency)
	}
	// Slot order, so TruthSum is deterministic however the pushes were
	// scheduled.
	for i := range e.truth {
		res.TruthSum += e.truth[i].v
	}
}

// ingestLag totals the unconsumed backlog across every leaf topic — the
// records the valves have published that the layer-0 consumer groups have
// not yet committed past, summed for telemetry. Topics shared by several
// source slots count once; a detached node's topic, and a group another
// process has not registered yet, contribute nothing.
func (e *engine) ingestLag() int64 {
	var total int64
	seen := make(map[string]struct{}, len(e.plan.Sources))
	for _, src := range e.plan.Sources {
		if _, dup := seen[src.Topic]; dup {
			continue
		}
		seen[src.Topic] = struct{}{}
		leaf := e.plan.Layers[0][src.ParentIndex]
		if g := e.groupByID[leaf.ID]; g != nil && g.isDetached() {
			continue // nothing consumes a detached node's topic
		}
		lag, err := e.bus.GroupLag(src.Topic, leaf.ID+"-in")
		if err != nil {
			continue // topic gone (bus closed) or group not yet registered
		}
		total += lag
	}
	return total
}

// quiescent is the drain probe: whether nothing is in flight through this
// process's groups. Every in-flight item is visible to it as exactly one of
// unfetched topic lag, a busy member pump (records dispatch after their
// offsets commit), or Ψ buffered in an edge member awaiting its window flush,
// so it cannot report quiescence early however the scheduler starves the
// pipeline. Read order matters: pending is sampled before the lags, so a
// batch that flushes mid-probe is caught either in Ψ or as parent-topic lag
// later in the sweep (flushes forward before zeroing pending). Detached
// groups are drained and stopped and are skipped.
func (e *engine) quiescent() bool {
	var lag, pending int64
	busy := false
	for _, g := range e.groups {
		if g.isDetached() {
			continue
		}
		pending += g.pending()
		lag += g.lag()
		busy = busy || g.busy()
	}
	return lag == 0 && !busy && pending == 0
}

// ingester returns the push valve for one source slot, creating it on first
// use (ingest tiers only).
func (e *engine) ingester(slot int) (*Ingester, error) {
	if !e.tier.Ingest {
		return nil, errNoIngest
	}
	if slot < 0 || slot >= e.plan.Spec.Sources {
		return nil, fmt.Errorf("%w: slot %d of %d sources", ErrBadSourceSlot, slot, e.plan.Spec.Sources)
	}
	e.valveMu.Lock()
	defer e.valveMu.Unlock()
	if in := e.valves[slot]; in != nil {
		return in, nil
	}
	src := e.plan.Sources[slot]
	leaf := e.plan.Layers[0][src.ParentIndex]
	lag := e.lags[src.Topic]
	if lag == nil {
		// No probe has answered yet: past the mark, so the first push asks.
		lag = new(carriedLag)
		lag.pastMark(e.cfg.MaxIngestLag)
		e.lags[src.Topic] = lag
	}
	in := &Ingester{
		e:        e,
		leaf:     e.groupByID[leaf.ID],
		lagGroup: leaf.ID + "-in", // the leaf node's consumer group (streams source node "in")
		carried:  lag,
		rate:     e.cfg.SourceRate,
		truth:    &e.truth[slot],
		valve: valve{
			slot:      slot,
			topic:     src.Topic,
			producer:  countingProducer{e.bus.NewProducer(), lag},
			bwc:       e.res.Bandwidth.Counter(src.Topic),
			perRecord: e.cfg.recordAtATime,
			from:      sourceFrom(slot),
			stampTs:   !e.cfg.EventTime,
			marks:     make(map[stream.SourceID]time.Time),
		},
	}
	if in.stampTs {
		// Built stopped, and assigned before the valve is shared: a timer
		// assigned after AfterFunc returns would race its own callback.
		in.idle = time.AfterFunc(time.Hour, in.beatIfIdle)
		in.idle.Stop()
	}
	e.valves[slot] = in
	return in, nil
}

// forceProbe puts topic's carried lag past the mark, so the next push on it
// asks the broker instead of trusting a figure from before an elastic change
// to the group consuming it.
func (e *engine) forceProbe(topic string) {
	e.valveMu.Lock()
	lag := e.lags[topic]
	e.valveMu.Unlock()
	if lag != nil {
		lag.pastMark(e.cfg.MaxIngestLag)
	}
}
