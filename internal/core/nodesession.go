package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/transport"
)

// This file is the multi-process form of the live session: a NodeSession
// runs ONE slice of the compiled tree — some edge layers, the root, or just
// the source valves — against a caller-supplied transport bus, so a 3-tier
// deployment can run as three (or more) OS processes sharing a broker
// daemon over TCP (internal/transport/tcp), the shape the paper's
// Kafka-based prototype deploys in. Every process compiles the SAME plan
// from the same LiveConfig, so topic names, partition counts, member IDs,
// seed lineages, and watermark expectations agree by construction; the
// cross-process contract is the plan, not any runtime handshake.
//
// Determinism contract: node mode requires event-time windows. Processing-
// time windows are cut by each process's private wall clock, so two
// processes could never agree on window contents; event-time windows are
// cut by record timestamps and closed by watermarks that travel with the
// data, which is exactly what makes the multi-process run produce per-
// window counts identical to a single-process run of the same workload.
//
// Completion flows with the data too. The source process pushes its items,
// then FinishIngest broadcasts the end-of-stream watermark; the close wave
// cascades bottom-up through every tier exactly as it does inside a single
// process, and when the root's merged watermark reaches end-of-stream the
// root session publishes a completion marker on the plan's control topic.
// Edge-tier processes WaitDone on that marker — by then everything they
// will ever consume has been forwarded — then Drain and exit.

// Node-mode errors.
var (
	// ErrNodeNeedsBus rejects OpenNode without a caller-supplied bus: a
	// process-per-tier deployment is meaningless on a private in-memory
	// broker no other process can reach.
	ErrNodeNeedsBus = errors.New("core: node sessions need a shared transport bus (set LiveConfig.Bus)")
	// ErrNodeNeedsEventTime rejects processing-time node sessions: windows
	// cut by per-process wall clocks cannot agree across processes.
	ErrNodeNeedsEventTime = errors.New("core: node sessions require EventTime (wall-clock windows are per-process and cannot merge exactly)")
	// ErrNodeUnsupported rejects LiveConfig features that need the whole
	// tree in one process (the feedback loop's root-colocated controller,
	// checkpoint restarts driven by the session's elastic layer).
	ErrNodeUnsupported = errors.New("core: node sessions do not support Feedback or Checkpoint")
	// ErrNodeTierEmpty rejects a tier that selects nothing to run.
	ErrNodeTierEmpty = errors.New("core: node tier selects no layers, no root, and no ingest valves")
	// ErrNodeBadLayer rejects a tier layer outside the plan's edge layers.
	ErrNodeBadLayer = errors.New("core: node tier layer out of range (select the root with NodeTier.Root)")
)

// nodeDoneMarker is the control-topic record the root session publishes
// when its merged watermark reaches end-of-stream. Its length differs from
// controlRecordSize, so an adaptive member's control drain (decodeControl)
// rejects and skips it — the marker can never be mistaken for a fraction.
var nodeDoneMarker = []byte("approxiot:eos-done")

// NodeTier selects the slice of the compiled tree one process runs.
type NodeTier struct {
	// Layers lists the edge layers (0-based, bottom-up) whose shard groups
	// this process runs. The root layer is selected by Root, never here.
	Layers []int
	// Root runs the root consumer group, the window merger, and the
	// completion detector in this process.
	Root bool
	// Ingest makes this process a source: Push/Pusher valves publish into
	// the leaf topics with backpressure, and FinishIngest broadcasts the
	// end-of-stream watermark. A process may combine Ingest with Layers
	// (the usual leaf-tier shape) or run ingest-only (a sensor gateway).
	Ingest bool
}

// NodeResult is the slice of a run's measurement a single tier can vouch
// for. Only the source tier has a meaningful Produced; only the root tier
// has Windows; every tier counts its own decode errors and late drops —
// cross-process accounting identities (Σ window counts + late-dropped
// input = produced) are assembled by whoever can see all tiers.
type NodeResult struct {
	// Produced counts items pushed through this process's valves.
	Produced int64
	// RootProcessed counts items the root members aggregated (root tier).
	RootProcessed int64
	// DecodeErrors counts undecodable data-plane records seen here.
	DecodeErrors int64
	// LateDropped / LateDroppedInput count records this tier dropped past
	// the lateness horizon, in items and estimated original input.
	LateDropped      int64
	LateDroppedInput float64
	// Windows holds the merged window results, in event-time order (root
	// tier only).
	Windows []WindowResult
}

// NodeSession is one process's slice of a live deployment. Construct with
// OpenNode; all methods are safe for concurrent use. The session never
// owns its bus — Close leaves the backend (and the topics it holds)
// running for the other tiers.
type NodeSession struct {
	cfg  LiveConfig
	plan *Plan
	tier NodeTier
	bus  transport.Bus

	groups    []*shardGroup // edge groups, then the root group last
	rootGrp   *shardGroup
	rootProcs []*rootProcessor
	engine    *query.Engine

	// Root-tier window state, guarded by windowMu like the live session's.
	windowMu      sync.Mutex
	windows       []WindowResult
	windowsClosed atomic.Int64

	produced      atomic.Int64
	rootProcessed atomic.Int64
	decodeErrs    atomic.Int64
	late          lateCounter
	lastActivity  atomic.Int64
	startNanos    atomic.Int64
	started       atomic.Bool
	quiesce       atomic.Bool
	bw            *metrics.BandwidthAccount

	valveMu sync.Mutex
	valves  []*NodePusher
	lags    map[string]*carriedLag // per leaf topic, shared by every valve on it

	cancelTick context.CancelFunc
	tickWG     sync.WaitGroup

	doneOnce sync.Once
	done     chan struct{} // root tier: merged watermark reached end-of-stream

	closeOnce sync.Once
	closed    chan struct{}
	res       *NodeResult
}

// OpenNode instantiates one tier of cfg's deployment against cfg.Bus and
// returns the running slice. Every process of the deployment must pass an
// identical LiveConfig (same spec, seed, partitions, shards, window
// parameters) — the compiled plan is the cross-process contract — and a
// tier that names its own share. Cancelling ctx aborts the session without
// a drain; a nil ctx behaves like context.Background().
func OpenNode(ctx context.Context, cfg LiveConfig, tier NodeTier) (*NodeSession, error) {
	if cfg.Bus == nil {
		return nil, ErrNodeNeedsBus
	}
	if !cfg.EventTime {
		return nil, ErrNodeNeedsEventTime
	}
	if cfg.Feedback != nil || cfg.Checkpoint != nil {
		return nil, ErrNodeUnsupported
	}
	if !tier.Root && !tier.Ingest && len(tier.Layers) == 0 {
		return nil, ErrNodeTierEmpty
	}
	cfg, plan, err := compileLive(cfg)
	if err != nil {
		return nil, err
	}
	layers := append([]int(nil), tier.Layers...)
	sort.Ints(layers)
	for i, l := range layers {
		if l < 0 || l >= plan.RootLayer() {
			return nil, fmt.Errorf("%w: layer %d of %d edge layers", ErrNodeBadLayer, l, plan.RootLayer())
		}
		if i > 0 && layers[i-1] == l {
			return nil, fmt.Errorf("%w: layer %d selected twice", ErrNodeBadLayer, l)
		}
	}
	tier.Layers = layers

	n := &NodeSession{
		cfg:    cfg,
		plan:   plan,
		tier:   tier,
		bus:    cfg.Bus,
		bw:     metrics.NewBandwidthAccount(),
		valves: make([]*NodePusher, plan.Spec.Sources),
		lags:   make(map[string]*carriedLag),
		done:   make(chan struct{}),
		closed: make(chan struct{}),
	}
	now := time.Now()
	n.startNanos.Store(now.UnixNano())
	n.lastActivity.Store(now.UnixNano())

	// Every process creates every topic: creation is idempotent at equal
	// partition counts, so tiers race their startups safely and no tier
	// depends on another being up first.
	for _, td := range plan.Topics() {
		if err := n.bus.CreateTopic(td.Name, td.Partitions, 4096); err != nil {
			return nil, err
		}
	}

	fail := func(err error) (*NodeSession, error) {
		for i := len(n.groups) - 1; i >= 0; i-- {
			n.groups[i].stop()
		}
		return nil, err
	}
	for _, l := range tier.Layers {
		for _, desc := range plan.Layers[l] {
			grp, err := n.buildEdgeGroup(desc, now)
			if err != nil {
				return fail(err)
			}
			n.groups = append(n.groups, grp)
		}
	}
	if tier.Root {
		grp, err := n.buildRootGroup(now)
		if err != nil {
			return fail(err)
		}
		n.rootGrp = grp
		n.groups = append(n.groups, grp)
		n.engine = query.NewEngine(query.WithConfidence(cfg.Confidence))
	}
	for _, g := range n.groups {
		if err := g.start(); err != nil {
			return fail(err)
		}
	}

	if tier.Root {
		// The root tier's sweep ticker plays the live session's window
		// ticker role: merge the members' watermarks, emit due windows, and
		// detect end-of-stream.
		tickCtx, cancel := context.WithCancel(context.Background())
		n.cancelTick = cancel
		n.tickWG.Add(1)
		go func() {
			defer n.tickWG.Done()
			ticker := time.NewTicker(cfg.Window)
			defer ticker.Stop()
			for {
				select {
				case <-tickCtx.Done():
					return
				case at := <-ticker.C:
					n.sweep(at)
				}
			}
		}()
	}

	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				n.Close()
			case <-n.closed:
			}
		}()
	}
	return n, nil
}

// buildEdgeGroup instantiates one compiled edge node as a consumer group,
// wiring its members exactly as OpenLive does (same member IDs, same seed
// lineages, same FixedBudget split, same watermark expectations) minus the
// feedback and checkpoint plumbing node mode rejects — that parity is what
// makes a multi-process run's windows identical to a single-process run's.
func (n *NodeSession) buildEdgeGroup(desc NodeDesc, now time.Time) (*shardGroup, error) {
	var gb *groupBudget
	if fb, ok := n.cfg.Cost.(FixedBudget); ok {
		gb = newGroupBudget(fb.Size)
	}
	grp, err := newShardGroup(n.bus, desc, n.cfg.recordAtATime, func(shard int) (streams.Processor, *samplingProcessor) {
		sp := &samplingProcessor{
			id:         memberID(desc, shard),
			quiesce:    &n.quiesce,
			window:     n.cfg.Window,
			decodeErrs: &n.decodeErrs,
			bwc:        n.bw.Counter(desc.ParentTopic),
			enc:        encoderFor(n.bus),
		}
		mk := func() *Node { return n.plan.NewNodeShard(desc, shard) }
		if gb != nil {
			mb := gb.join(memberID(desc, shard))
			mk = func() *Node { return n.plan.NewNodeShardCost(desc, shard, mb) }
		}
		sp.ew = newEventWindows(n.plan.Spec.Window, n.cfg.AllowedLateness, &n.late, mk)
		sp.eosNotify = memberEOSBroadcast(n.bus.NewProducer(), desc.ParentTopic,
			sp.id, n.plan.Partitions, sp.bwc)
		sp.wt = newWatermarkTracker(n.cfg.IdleTimeout)
		for _, from := range n.plan.ExpectedProducers(desc) {
			sp.wt.expect(from, now)
		}
		return sp, sp
	})
	if err != nil {
		return nil, err
	}
	grp.budget = gb
	grp.changeOffsets = make([]int64, n.plan.Partitions)
	return grp, nil
}

// buildRootGroup instantiates the root consumer group, mirroring OpenLive's
// root wiring without the adaptive branches.
func (n *NodeSession) buildRootGroup(now time.Time) (*shardGroup, error) {
	plan := n.plan
	n.rootProcs = make([]*rootProcessor, plan.RootShards)
	grp, err := newShardGroup(n.bus, plan.Root(), n.cfg.recordAtATime, func(shard int) (streams.Processor, *samplingProcessor) {
		p := &rootProcessor{
			id:           memberID(plan.Root(), shard),
			work:         n.cfg.RootWork,
			processed:    &n.rootProcessed,
			decodeErrs:   &n.decodeErrs,
			lastActivity: &n.lastActivity,
			latency:      metrics.NewHistogram(),
		}
		mk := func() *Node { return plan.NewRootShard(shard) }
		p.ew = newEventWindows(plan.Spec.Window, n.cfg.AllowedLateness, &n.late, mk)
		p.wt = newWatermarkTracker(n.cfg.IdleTimeout)
		for _, from := range plan.ExpectedProducers(plan.Root()) {
			p.wt.expect(from, now)
		}
		n.rootProcs[shard] = p
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	grp.changeOffsets = make([]int64, plan.Partitions)
	return grp, nil
}

// mergedRootWatermark merges the root members' watermarks exactly as the
// live session's ticker does: minimum over members with an opinion, zero
// while any member is blocked on an expected-but-unheard producer.
func (n *NodeSession) mergedRootWatermark(now time.Time) time.Time {
	var min time.Time
	for _, rp := range n.rootProcs {
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

// sweep runs one root-tier ticker round: advance every member to the
// merged watermark, emit the windows that became due, and — once the
// watermark carries an end-of-stream promise — flush the remainder and
// declare the run complete.
func (n *NodeSession) sweep(at time.Time) {
	wm := n.mergedRootWatermark(at)
	if wm.IsZero() {
		return
	}
	n.emitDue(at, wm)
	if !wm.Before(eosHorizon) {
		// End of stream: every chain has promised it is done forever, so
		// one final advance to the absolute bound empties every member.
		n.emitDue(at, eosWatermark)
		n.completeRoot()
	}
}

// emitDue advances every root member to wm, merges the closed windows by
// start, and emits them in ascending event-time order — the node-mode twin
// of the live session's closeEventWindows.
func (n *NodeSession) emitDue(at time.Time, wm time.Time) {
	n.windowMu.Lock()
	defer n.windowMu.Unlock()
	for _, win := range closeRootWindows(n.rootProcs, wm, at, n.engine, n.plan) {
		n.windows = append(n.windows, win)
		n.windowsClosed.Add(1)
		if n.cfg.OnWindow != nil {
			n.cfg.OnWindow(win)
		}
	}
}

// completeRoot publishes the run's completion marker on the control topic
// — the in-band signal edge-tier processes WaitDone on — and closes Done.
// Once, no matter how many sweeps see the end-of-stream watermark.
func (n *NodeSession) completeRoot() {
	n.doneOnce.Do(func() {
		p := n.bus.NewProducer()
		// Best-effort: a failed send only degrades remote WaitDone to its
		// caller's context deadline; this process's Done still closes.
		_, _, _ = p.Send(n.plan.ControlTopic, nil, nodeDoneMarker)
		close(n.done)
	})
}

// Done returns a channel closed when the run completes — on the root tier,
// when the merged watermark reaches end-of-stream. Other tiers learn of
// completion via WaitDone (the channel closes only with the session).
func (n *NodeSession) Done() <-chan struct{} { return n.done }

// WaitDone blocks until the deployment-wide run completes: the root tier
// waits for its own end-of-stream detection, every other tier waits for
// the completion marker the root published on the control topic. Returns
// ctx's error on cancellation and ErrSessionClosed if the session is
// closed while waiting.
func (n *NodeSession) WaitDone(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n.tier.Root {
		select {
		case <-n.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-n.closed:
			return ErrSessionClosed
		}
	}
	c, err := n.bus.NewConsumer(n.plan.ControlTopic)
	if err != nil {
		return err
	}
	defer c.Close()
	for {
		select {
		case <-n.closed:
			return ErrSessionClosed
		default:
		}
		recs, err := c.Poll(ctx, 64)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return ctx.Err()
			}
			return err
		}
		for _, r := range recs {
			if bytes.Equal(r.Value, nodeDoneMarker) {
				n.doneOnce.Do(func() { close(n.done) })
				return nil
			}
		}
	}
}

// Drain blocks until this process's groups quiesce: no unfetched input, no
// pump mid-cycle, nothing buffered in Ψ — held for several consecutive
// probes so a flush racing the probe cannot fake quiescence. Call after
// WaitDone (the pipeline upstream of this tier has stopped producing) and
// before Close. Returns ctx's error on cancellation.
func (n *NodeSession) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	wait := n.cfg.Window / 4
	if wait <= 0 {
		wait = time.Millisecond
	}
	clean := 0
	for clean < 3 {
		var lag, pending int64
		busy := false
		for _, g := range n.groups {
			pending += g.pending()
			lag += g.lag()
			busy = busy || g.busy()
		}
		if lag == 0 && !busy && pending == 0 {
			clean++
		} else {
			clean = 0
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.closed:
			return nil
		case <-time.After(wait):
		}
	}
	return nil
}

// markStarted pins the elapsed span to the first push.
func (n *NodeSession) markStarted() {
	if n.started.CompareAndSwap(false, true) {
		now := time.Now().UnixNano()
		n.startNanos.Store(now)
		n.lastActivity.Store(now)
	}
}

// isClosed reports whether Close has run.
func (n *NodeSession) isClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// Close stops this process's groups and assembles the tier's final
// NodeResult. It does NOT close the bus (the session never owns it) and it
// does not drain — call Drain first for a graceful exit. Idempotent; every
// call returns the same result.
func (n *NodeSession) Close() *NodeResult {
	n.closeOnce.Do(func() {
		n.quiesce.Store(true)
		if n.cancelTick != nil {
			n.cancelTick()
			n.tickWG.Wait()
		}
		if n.rootGrp != nil {
			// Root members fully drain fetched records at Stop; one final
			// sweep emits whatever that made due, end-of-stream included.
			n.rootGrp.stop()
			n.emitDue(time.Now(), eosWatermark)
		}
		for i := len(n.groups) - 1; i >= 0; i-- {
			n.groups[i].stop()
		}
		n.windowMu.Lock()
		windows := append([]WindowResult(nil), n.windows...)
		n.windowMu.Unlock()
		n.res = &NodeResult{
			Produced:         n.produced.Load(),
			RootProcessed:    n.rootProcessed.Load(),
			DecodeErrors:     n.decodeErrs.Load(),
			LateDropped:      n.late.items.Load(),
			LateDroppedInput: n.late.input.load(),
			Windows:          windows,
		}
		close(n.closed)
	})
	<-n.closed
	return n.res
}

// Snapshot assembles this tier's telemetry in the live session's snapshot
// shape, so the internal/ops HTTP surface (/health, /metrics) serves a
// node process unchanged. Fields another tier owns read zero here: a leaf
// process reports no windows, a root process no produced count.
func (n *NodeSession) Snapshot() LiveSnapshot {
	now := time.Now()
	state := StateIngesting
	if n.isClosed() {
		state = StateClosed
	}
	snap := LiveSnapshot{
		State:            state,
		Produced:         n.produced.Load(),
		RootProcessed:    n.rootProcessed.Load(),
		DecodeErrors:     n.decodeErrs.Load(),
		LateDropped:      n.late.items.Load(),
		LateDroppedInput: n.late.input.load(),
		WindowsClosed:    int(n.windowsClosed.Load()),
		Latency:          metrics.NewHistogram(),
		Bandwidth:        n.bw.Snapshot(),
		Window:           n.cfg.Window,
		MaxIngestLag:     n.cfg.MaxIngestLag,
		EventTime:        true,
		Start:            time.Unix(0, n.startNanos.Load()),
		LastActivity:     time.Unix(0, n.lastActivity.Load()),
	}
	if !n.isClosed() {
		snap.IngestLag = n.ingestLag()
		if n.tier.Root {
			snap.Watermark = n.mergedRootWatermark(now)
		}
	}
	elapsed := now.Sub(snap.Start)
	if elapsed < 0 {
		elapsed = 0
	}
	snap.Elapsed = elapsed
	if elapsed > 0 {
		snap.Throughput = float64(snap.Produced) / elapsed.Seconds()
	}
	for _, rp := range n.rootProcs {
		snap.Latency.Merge(rp.latency)
	}
	snap.Nodes = make(map[string]NodeTelemetry)
	record := func(id string, st NodeStats) {
		tel := NodeTelemetry{Observed: st.Observed, Emitted: st.Emitted, Intervals: st.Intervals}
		if elapsed > 0 {
			tel.Throughput = float64(st.Observed) / elapsed.Seconds()
		}
		snap.Nodes[id] = tel
	}
	for _, g := range n.groups {
		g.mu.Lock()
		members := append([]*groupMember(nil), g.members...)
		g.mu.Unlock()
		for _, m := range members {
			if m.proc != nil {
				record(m.id, m.proc.stats())
			}
		}
	}
	for _, rp := range n.rootProcs {
		record(rp.id, rp.stats())
	}
	return snap
}

// ingestLag totals the unconsumed leaf-topic backlog — the same probe the
// valves' backpressure uses, summed across topics for telemetry. A group
// another process has not registered yet simply contributes nothing.
func (n *NodeSession) ingestLag() int64 {
	var total int64
	seen := make(map[string]struct{}, len(n.plan.Sources))
	for _, src := range n.plan.Sources {
		if _, dup := seen[src.Topic]; dup {
			continue
		}
		seen[src.Topic] = struct{}{}
		leaf := n.plan.Layers[0][src.ParentIndex]
		lag, err := n.bus.GroupLag(src.Topic, leaf.ID+"-in")
		if err != nil {
			continue
		}
		total += lag
	}
	return total
}

// Pusher returns the push valve for one source slot (Ingest tiers only;
// the valve is cached per slot). The valve is the node-mode twin of the
// live session's Ingester: it stamps, batches, paces, applies ingest
// backpressure against the leaf group's lag, and piggybacks the slot's
// event-time watermark.
func (n *NodeSession) Pusher(slot int) (*NodePusher, error) {
	if !n.tier.Ingest {
		return nil, fmt.Errorf("core: tier has no ingest valves (set NodeTier.Ingest)")
	}
	if slot < 0 || slot >= n.plan.Spec.Sources {
		return nil, fmt.Errorf("%w: slot %d of %d sources", ErrBadSourceSlot, slot, n.plan.Spec.Sources)
	}
	n.valveMu.Lock()
	defer n.valveMu.Unlock()
	if v := n.valves[slot]; v != nil {
		return v, nil
	}
	src := n.plan.Sources[slot]
	leaf := n.plan.Layers[0][src.ParentIndex]
	lag := n.lags[src.Topic]
	if lag == nil {
		lag = new(carriedLag)
		// No probe has answered yet: past the mark, so the first push asks.
		lag.offset.Store(int64(n.cfg.MaxIngestLag) + 1)
		n.lags[src.Topic] = lag
	}
	v := &NodePusher{
		n:        n,
		lagGroup: leaf.ID + "-in", // the leaf node's consumer group (streams source node "in")
		rate:     n.cfg.SourceRate,
		valve: valve{
			slot:     slot,
			topic:    src.Topic,
			producer: countingProducer{n.bus.NewProducer(), lag},
			bwc:      n.bw.Counter(src.Topic),
			from:     sourceFrom(slot),
			marks:    make(map[stream.SourceID]time.Time),
			enc:      encoderFor(n.bus),
		},
		carried: lag,
	}
	n.valves[slot] = v
	return v, nil
}

// Push publishes items onto source slot `slot` — the multi-arg convenience
// over Pusher(slot).Push.
func (n *NodeSession) Push(slot int, items ...stream.Item) error {
	v, err := n.Pusher(slot)
	if err != nil {
		return err
	}
	return v.Push(items...)
}

// FinishIngest ends this process's ingestion: the end-of-stream watermark
// is broadcast through every source slot's valve (valves for never-pushed
// slots are created so every statically-expected producer chain terminates
// in-band) and further pushes are rejected with ErrSessionDraining. The
// close wave then cascades through every tier and the root completes.
func (n *NodeSession) FinishIngest() error {
	if !n.tier.Ingest {
		return fmt.Errorf("core: tier has no ingest valves (set NodeTier.Ingest)")
	}
	for slot := 0; slot < n.plan.Spec.Sources; slot++ {
		v, err := n.Pusher(slot)
		if err != nil {
			return err
		}
		v.sendEOS()
	}
	return nil
}

// NodePusher is the push valve for one source slot of a node session: the
// process-per-tier twin of the live Ingester, publishing into the slot's
// leaf topic over whatever bus the session runs on. Pushes through one
// valve are serialized; distinct slots push concurrently.
type NodePusher struct {
	n        *NodeSession
	lagGroup string
	carried  *carriedLag // the leaf topic's, shared with every other valve on it
	rate     float64

	// sent is atomic so observers (tests, telemetry) can read it while a
	// Push is parked in backpressure holding mu.
	sent atomic.Int64

	mu       sync.Mutex
	valve         // the publishing half, shared with Ingester (under mu)
	finished bool // end-of-stream sent; further pushes are rejected
	epoch    time.Time
}

// Slot returns the source slot this valve feeds.
func (v *NodePusher) Slot() int { return v.slot }

// Sent returns the number of items pushed through this valve so far.
func (v *NodePusher) Sent() int64 { return v.sent.Load() }

// Push publishes items into the slot's leaf topic: consecutive runs of the
// same sub-stream become one weighted batch keyed by SourceID, Pub is
// stamped with the publish instant, caller-supplied event timestamps are
// preserved (zero Ts defaults to the publish instant), and the sub-
// stream's low watermark piggybacks on the records. Push blocks for
// backpressure while the leaf group's backlog exceeds MaxIngestLag (a
// record count, like the group lag it is compared against), and
// paces to SourceRate. Returns ErrSessionDraining after FinishIngest and
// ErrSessionClosed after Close.
func (v *NodePusher) Push(items ...stream.Item) error {
	n := v.n
	if n.isClosed() {
		return ErrSessionClosed
	}
	if len(items) == 0 {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.finished {
		return ErrSessionDraining
	}
	if v.epoch.IsZero() {
		v.epoch = time.Now()
	}
	if err := v.backpressure(); err != nil {
		return err
	}
	n.markStarted()

	if err := v.publish(items, nil); err != nil {
		return err
	}
	sent := v.sent.Add(int64(len(items)))
	n.produced.Add(int64(len(items)))

	if v.rate > 0 {
		ahead := time.Duration(float64(sent)/v.rate*float64(time.Second)) - time.Since(v.epoch)
		if ahead > 0 {
			select {
			case <-n.closed:
			case <-time.After(ahead):
			}
		}
	}
	return nil
}

// carriedLag is one leaf topic's group lag as this process can bound it
// without asking: the last GroupLag answer plus every record the process has
// sent to the topic since. Consumption only lowers the true lag, so the
// figure never understates what this process has put there (records other
// processes send to the topic show at the next probe, as they did between two
// per-push probes). It is kept as the running count of records sent and an
// offset — a probe's answer minus the count read BEFORE that probe — so a
// send racing the probe is counted on top of the answer, never lost under it;
// two probes racing each leave a valid bound.
type carriedLag struct {
	sent   atomic.Int64
	offset atomic.Int64
}

func (c *carriedLag) bound() int64 { return c.offset.Load() + c.sent.Load() }

// countingProducer is a node valve's producer: it tells the topic's carried
// lag of every record before the record is sent, in each of the three sends a
// valve makes — the batched push, the record-at-a-time path and the
// end-of-stream broadcast — so nothing a valve puts on the topic goes
// uncounted, and the publishing half it shares with the Ingester need not
// know.
type countingProducer struct {
	transport.Producer
	lag *carriedLag
}

func (p countingProducer) SendWatermarked(topic string, key, value []byte, wm mq.Watermark) (int, int64, error) {
	p.lag.sent.Add(1)
	return p.Producer.SendWatermarked(topic, key, value, wm)
}

func (p countingProducer) SendBatch(topic string, recs []mq.Record) error {
	p.lag.sent.Add(int64(len(recs)))
	return p.Producer.SendBatch(topic, recs)
}

func (p countingProducer) SendToWatermarked(topic string, partition int, key, value []byte, wm mq.Watermark) (int64, error) {
	p.lag.sent.Add(1)
	return p.Producer.SendToWatermarked(topic, partition, key, value, wm)
}

// backpressure blocks while the leaf group's unconsumed backlog exceeds the
// configured high-water mark. Over a remote bus the GroupLag probe is a round
// trip, so the valve does not ask per push: it admits on the lag it carries
// forward (carriedLag) while that is within the mark and probes — storing
// the answer — only past it, which with a consumer that keeps up is once per
// MaxIngestLag records. Unlike the single-process valve — where an unknown
// group can only be a wiring bug — a node-mode probe failure is usually a
// startup race (the tier running the leaf group is not up yet), so the valve
// WAITS on probe errors instead of failing or admitting: a push is never
// admitted on a lag no probe has vouched for, which is exactly the guarantee
// that keeps MaxIngestLag meaningful over a remote backend (a transport error
// that silently admitted pushes would disable backpressure). A closed topic
// still fails fast.
func (v *NodePusher) backpressure() error {
	n := v.n
	mark := int64(n.cfg.MaxIngestLag)
	if mark < 0 || v.carried.bound() <= mark {
		return nil
	}
	wait := n.cfg.Window / 8
	if wait <= 0 {
		wait = time.Millisecond
	}
	for {
		sent := v.carried.sent.Load()
		lag, err := n.bus.GroupLag(v.topic, v.lagGroup)
		if err == nil {
			v.carried.offset.Store(lag - sent)
			if v.carried.bound() <= mark {
				return nil
			}
		}
		if errors.Is(err, mq.ErrClosed) {
			return ErrSessionClosed
		}
		if n.isClosed() {
			return ErrSessionClosed
		}
		select {
		case <-n.closed:
			return ErrSessionClosed
		case <-time.After(wait):
		}
	}
}

// sendEOS broadcasts the end-of-stream watermark for every sub-stream that
// pushed through this valve (or the slot's default stratum if none did) to
// EVERY partition of the leaf topic, and marks the valve finished. The
// broadcast mirrors the live Ingester's: after a rebalance a member can
// buffer windows for sub-streams whose partitions it no longer owns, and a
// keyed end-of-stream would never reach it.
func (v *NodePusher) sendEOS() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.finished {
		return
	}
	v.finished = true
	srcs := make([]stream.SourceID, 0, len(v.marks)+1)
	for src := range v.marks {
		srcs = append(srcs, src)
	}
	if len(srcs) == 0 {
		srcs = append(srcs, stream.SourceID(fmt.Sprintf("source%d", v.slot)))
	}
	for _, src := range srcs {
		payload := heartbeat(src).Marshal()
		wm := mq.Watermark{From: v.from, At: eosWatermark}
		for part := 0; part < v.n.plan.Partitions; part++ {
			v.bwc.Add(int64(len(payload)))
			// The bus outlives the drain; a send can only fail once the
			// deployment is past caring about these heartbeats.
			_, _ = v.producer.SendToWatermarked(v.topic, part, []byte(src), payload, wm)
		}
	}
}
