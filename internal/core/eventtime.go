package core

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
)

// This file is the event-time windowing machinery of the engine's members,
// live or simulated in virtual time (the MillWheel/Dataflow model, scaled
// down to what the ApproxIoT tree needs):
//
//   - records are assigned to tumbling windows by their event timestamp
//     (Item.Ts), not by when they happen to be buffered at a ticker;
//   - every producer piggybacks a low watermark on the records it sends
//     (mq.Record.Watermark, an (origin, instant) pair) — the promise that
//     no future record of that chain carries an earlier event timestamp;
//   - every node tracks the latest watermark per upstream (producer, input
//     partition) lane and takes the minimum as its own watermark — plus,
//     at the leaf, where the producers are valves that stamp per
//     sub-stream, the latest per (producer, sub-stream) chain. Producers the
//     compiled plan expects (Plan.ExpectedProducers) hold the minimum until
//     heard from; entries silent longer than the idle timeout are excluded
//     (at the instant the tracker says the next one can age out,
//     nextAging), except end-of-stream promises, which never age;
//   - a window [s, s+W) closes once the node's watermark reaches
//     s+W+AllowedLateness; records assigned to a window that is already
//     closed are dropped and counted (LateDropped), never allowed to
//     corrupt a closed window's exact count.
//
// Closes propagate bottom-up in the order the data does, on three rules
// that together make every close complete: records are ingested BEFORE
// their piggybacked watermark is folded; outbound stamps never promise
// beyond what the sender has already forwarded (the dataWatermark /
// outboundWatermark ladder); and members re-assert liveness upstream
// (keepalives) while they hold buffered state, so a parent cannot age a
// slow-but-live child out of the minimum and close windows over its data.
// A member promises per output lane: every close, and every keepalive,
// sends one zero-item beat at its outbound watermark to each partition of
// its parent topic, so a lane none of its data rode still advances, and a
// quiet sub-stream does not stall its ancestors. A keepalive goes out only
// when it carries news (keepaliveDue): the first presence beat, an entry
// back from idle, or a quarter of the idle timeout since the last beat —
// the parent ages nothing sooner, and with aging off nothing ages at all.

// eosWatermark is the end-of-stream watermark: far enough in the future to
// close every window that could ever hold data, while staying inside the
// range time.Time arithmetic in unix nanoseconds can represent.
var eosWatermark = time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)

// eosHorizon classifies end-of-stream promises: a chain watermark within a
// year of eosWatermark can only descend from it (bound+lateness offsets
// are operational spans, nowhere near a year). Such a chain is exempt from
// the idle timeout — idleness models "more data may come, delayed", while
// end-of-stream means "done forever", and aging a finished chain out of
// the minimum would strand the windows its final flush should close.
var eosHorizon = eosWatermark.AddDate(-1, 0, 0)

// windowFloor returns the start (in unix nanoseconds) of the tumbling
// window of length w that contains the instant tsNanos.
func windowFloor(tsNanos int64, w time.Duration) int64 {
	r := tsNanos % int64(w)
	if r < 0 {
		r += int64(w)
	}
	return tsNanos - r
}

// atomicFloat64 is a float64 with atomic add/load, for counters read by
// snapshot goroutines while the owner accumulates.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat64) load() float64 { return math.Float64frombits(f.bits.Load()) }

// lateCounter accounts records dropped past the lateness horizon in both
// currencies the Σ-window-counts + late == produced identity needs: raw
// items (what physically hit the floor) and the estimated original input
// those items represent. A leaf drops weight-1 records, so the two
// coincide there; an interior node drops already-sampled batches whose
// items each stand for Batch.Weight originals, and only the weighted form
// keeps the identity exact through such a drop.
type lateCounter struct {
	items atomic.Int64
	input atomicFloat64
}

func (c *lateCounter) add(n int, weight float64) {
	c.items.Add(int64(n))
	c.input.add(weight * float64(n))
}

// closedWindow is one event-time window a node has closed: its start
// instant and the weighted sample batches that survived the node's sampler.
// theta views the storage of node, the window's retired sampling node; once
// theta is dead the owner hands the window to eventWindows.recycle.
type closedWindow struct {
	start int64 // unix nanos of the window start
	theta []stream.Batch
	node  *Node
}

// eventWindows buckets a node's Ψ store by event-time tumbling window: one
// private sampling Node per open window, opened on first assignment, all
// drawing their item storage from the one slab store the eventWindows owns
// across windows. Retired window nodes are kept beside the slabs and reopened
// for the windows that come next, so opening a window builds (and seeds)
// nothing. Closing is watermark-driven and monotone — once the close bound
// passes a window start, records assigned below the bound are counted late
// and dropped. Not safe for concurrent use; owners serialize access exactly
// as they do for Node.
type eventWindows struct {
	window   time.Duration
	lateness time.Duration
	mkNode   func() *Node
	slabs    slabStore
	idle     []*Node // retired window nodes, recycled and ready to reopen
	// strata is the stratum table every window node indexes its sub-streams
	// by: a member's decoder parses headers with it (ingestWire), and its
	// watermark tracker shares it (engine.newTracker).
	strata *stream.SourceTable

	open     map[int64]*Node
	closing  []closedWindow // advance's result, reused: valid until the next advance
	bound    int64          // window starts below this are closed territory
	boundSet bool
	late     *lateCounter
	// ingestStamped marks timestamps the system stamped at ingest rather
	// than the caller: such a record is never late — it missed its window
	// only by losing a race between pipeline paths (or to a crashed
	// member's replay) — so one the close bound has passed reopens its
	// window, and behind makes the next advance close it again whether or
	// not the bound moves.
	ingestStamped bool
	behind        bool

	// Lifetime counters (per-window nodes are ephemeral, so the window
	// store aggregates them): observed items buffered, emitted items
	// forwarded from closed windows, and windows closed. Atomic because
	// telemetry readers (the live session's Snapshot) read them while the
	// owner ingests.
	obs, emit, wins atomic.Int64
}

func newEventWindows(window, lateness time.Duration, late *lateCounter, newNode func() *Node) *eventWindows {
	return &eventWindows{
		window:   window,
		lateness: lateness,
		mkNode:   newNode,
		strata:   stream.NewSourceTable(),
		open:     make(map[int64]*Node),
		late:     late,
	}
}

// newNode returns the sampling node of one window (or of one window restored
// from a checkpoint) on the shared slab store: a retired node reopened when
// there is one, a new one otherwise. Either samples identically — mkNode
// seeds every window from the same plan lineage, and reopen rewinds to it.
func (ew *eventWindows) newNode() *Node {
	if last := len(ew.idle) - 1; last >= 0 {
		n := ew.idle[last]
		ew.idle[last] = nil
		ew.idle = ew.idle[:last]
		n.reopen()
		return n
	}
	n := ew.mkNode()
	n.slabs = &ew.slabs
	n.strata = ew.strata
	return n
}

// idleNodesMax bounds the retired window nodes an eventWindows keeps (each
// holds a ~5 kB generator). Only windows open at once can retire together,
// so steady state sits at a handful; the bound is for the burst — an
// end-of-stream drain or a wildly out-of-order record closing hundreds of
// windows at once — whose nodes must not stay resident forever.
const idleNodesMax = 32

// recycle takes back closed windows whose theta nobody reads any more: their
// item storage goes to the slab store and their nodes wait to be reopened.
func (ew *eventWindows) recycle(closed []closedWindow) {
	for _, cw := range closed {
		cw.node.Recycle()
		if len(ew.idle) < idleNodesMax {
			ew.idle = append(ew.idle, cw.node)
		}
	}
}

// place returns the node of the window starting at start, for a run of count
// items of the given weight to land in, opening the window on first
// assignment — or nil, with the run counted late, when the close bound has
// already passed the window and the run is not ingest-stamped.
func (ew *eventWindows) place(start int64, count int, weight float64) *Node {
	if ew.boundSet && start < ew.bound {
		if !ew.ingestStamped {
			ew.late.add(count, weight)
			return nil
		}
		ew.behind = true
	}
	n := ew.open[start]
	if n == nil {
		n = ew.newNode()
		ew.open[start] = n
	}
	ew.obs.Add(int64(count))
	return n
}

// ingestWire assigns a record still on the wire to its event-time windows:
// the batch is split into window runs by the int64 timestamps read off the
// wire block — two integer compares per item against the current run's
// [start, end) — and each run is decoded once, straight into its window's Ψ
// storage. Items that belong to a window the close bound has already passed
// are dropped and counted late (place).
func (ew *eventWindows) ingestWire(h stream.Header) {
	for lo := 0; lo < h.Count; {
		start := windowFloor(h.TsNanos(lo), ew.window)
		hi := h.TsRun(lo+1, start, start+int64(ew.window))
		if n := ew.place(start, hi-lo, h.Weight); n != nil {
			n.IngestWire(h, lo, hi)
		}
		lo = hi
	}
}

// closeBoundFor returns the close bound a watermark implies: every window
// [s, s+W) with s+W+lateness ≤ wm is closeable, so the first still-open
// window start is floor(wm−W−L)+W.
func (ew *eventWindows) closeBoundFor(wm time.Time) int64 {
	cut := wm.UnixNano() - int64(ew.window) - int64(ew.lateness)
	return windowFloor(cut, ew.window) + int64(ew.window)
}

// dataWatermark returns the outbound watermark for a closed window's data
// records: start+lateness, the promise that every window BELOW start has
// been fully forwarded. It must never reach the window's own close
// threshold (start+window+lateness): that would authorize the parent to
// close this very window after the flush's FIRST record, orphaning the
// same window's remaining batches — and a whole-flush stamp at the final
// watermark would orphan every later window of the flush the same way.
// Zero (no promise) for windows at or before the unix epoch.
func (ew *eventWindows) dataWatermark(start int64) time.Time {
	v := start + int64(ew.lateness)
	if v <= 0 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// outboundWatermark is the member's honest promise to its parent: every
// window below the current close bound has been fully forwarded, so the
// parent may close exactly that far — bound+lateness maps back to the same
// bound — and not a window further. Zero (no promise yet) before the first
// advance. A member must never stamp outbound records with its *inbound*
// watermark: that can run a whole flush ahead of what the member has
// actually forwarded, and a parent trusting it closes windows whose data
// is still buffered below.
func (ew *eventWindows) outboundWatermark() time.Time {
	if !ew.boundSet {
		return time.Time{}
	}
	return time.Unix(0, ew.bound+int64(ew.lateness)).UTC()
}

// moves reports whether wm moves the close bound.
func (ew *eventWindows) moves(wm time.Time) bool {
	return !wm.IsZero() && (!ew.boundSet || ew.closeBoundFor(wm) > ew.bound)
}

// wouldAdvance reports whether advance(wm) would close anything: the bound
// moves, or a window behind it was reopened — callers with a window-boundary
// obligation (draining the control topic) use it to act only when a close is
// actually imminent.
func (ew *eventWindows) wouldAdvance(wm time.Time) bool {
	return ew.behind || ew.moves(wm)
}

// advance moves the close bound to what wm implies and closes every open
// window below it, in ascending event-time order. The bound is monotone: a
// regressing watermark (an idle source resuming with old data) closes
// nothing, and only an ingest-stamped record reopens closed territory. The
// result is the store's scratch: callers consume it — and hand it to
// recycle — before they advance again.
func (ew *eventWindows) advance(wm time.Time) []closedWindow {
	if !ew.wouldAdvance(wm) {
		return nil
	}
	if ew.moves(wm) {
		ew.bound = ew.closeBoundFor(wm)
		ew.boundSet = true
	}
	ew.behind = false
	out := ew.closing[:0]
	for s, n := range ew.open {
		if s < ew.bound {
			out = append(out, closedWindow{start: s, node: n})
		}
	}
	ew.closing = out
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b closedWindow) int { return cmp.Compare(a.start, b.start) })
	for i := range out {
		cw := &out[i]
		delete(ew.open, cw.start)
		cw.theta = cw.node.CloseInterval()
		for _, b := range cw.theta {
			ew.emit.Add(int64(len(b.Items)))
		}
		ew.wins.Add(1)
	}
	return out
}

// stats aggregates the lifetime counters across the ephemeral per-window
// nodes: items buffered into windows (late drops excluded — they are
// accounted separately), items emitted from closed windows, and windows
// closed. Safe to call from any goroutine.
func (ew *eventWindows) stats() NodeStats {
	return NodeStats{
		Observed:  ew.obs.Load(),
		Emitted:   ew.emit.Load(),
		Intervals: ew.wins.Load(),
	}
}

// buffered counts the items currently held across open windows — the
// event-time analogue of Node.Observed, feeding the live drain probe.
func (ew *eventWindows) buffered() int {
	total := 0
	for _, n := range ew.open {
		total += n.Observed()
	}
	return total
}

// sourceMark is the watermark state of one tracker entry — a chain, a lane
// floor or an expectation placeholder — at a node. Entries live in slices
// indexed by stratum slot or lane; live tells a present entry from an empty
// index.
type sourceMark struct {
	wm   time.Time // highest piggybacked watermark seen
	seen time.Time // arrival-clock instant of the last record (wall live, virtual sim)
	live bool
}

// producer is one upstream producer's entries at a node: a source valve or a
// child tree node's member, by the origin it stamps its watermarks with.
//
//   - chains, by stratum slot: the (producer, sub-stream) chains of a valve
//     (a leaf's tracker only). Distinct chains may legitimately carry the
//     same sub-stream — sources with identical distributions share IDs to
//     be stratified together — so watermark progress is never tracked per
//     sub-stream alone: the fast chain's watermark would close windows the
//     slow chain still holds data for. Chains are never deleted; slots
//     lists the ones present.
//   - lanes, by input partition: the producer's lane floors. The broker's
//     only ordering guarantee is per-partition FIFO, so a piggybacked
//     watermark is a promise about the records still queued BEHIND it on its
//     own lane — and nothing else. Lanes, not sub-streams, are therefore the
//     unit the close bound must be floored by.
//   - expect: the expectation placeholder, holding the minimum for a
//     producer the plan names (or that sent only keepalives) until its first
//     real stamp: a chain represents a valve from then on, its floors a
//     member. heard records that stamp, so a later keepalive does not
//     re-form the placeholder.
type producer struct {
	from   string
	floors bool // lane floors materialized across the owned set
	heard  bool
	expect sourceMark
	chains []sourceMark
	slots  []int32
	lanes  []sourceMark
}

// watermarkTracker derives a node's low watermark from the watermarks
// piggybacked on arriving records, as the minimum over its entries:
//
//   - (producer, lane) floors — the transport view: the latest stamp
//     consumed per owned input partition, which per-lane FIFO licenses as a
//     bound on every record still queued behind it;
//   - (producer, sub-stream) chains, at the leaf only (floorsOnly unset) —
//     the semantic view of a valve, which stamps each sub-stream with its
//     own high-water mark, so its stamps on one lane need not ascend;
//   - expectation placeholders, holding the minimum for producers the plan
//     names before they are first heard.
//
// Above the leaf every producer is a member, whose outbound stamps ascend
// globally (the flush ladder, beats that never regress, end of stream
// last): its floor on a lane is at least every promise it made for any
// sub-stream, so floors alone are a sound minimum and no chain is kept.
// Chains alone would be unsound once a topic has more than one partition: a
// valve's stamps for sub-stream X ride X's key lane, so draining X's lane
// first could lift the chain minimum past windows whose data for sub-stream
// Y is still queued on Y's lane — the floor for Y's lane, stuck at the last
// stamp consumed off it, holds the bound until that data is ingested.
//
// Floors exist for every known producer × owned lane (a lane the producer
// has not reached yet holds the bound as an alive-but-unpromising
// placeholder until its beat or the idle timeout covers it). The owned set
// comes from ownedFn when the context reports its consumer's assignment;
// otherwise — a test harness, the simulator's streaming edge — the tracker
// owns the lanes it has consumed from. Every entry shares the idle and
// end-of-stream exemption rules. Not safe for concurrent use.
//
// Entries are kept by dense index, not by key: a producer table (interned
// once per record, the last producer checked first) holds each producer's
// entries (see producer), chains indexed by the slot of the sub-stream in
// strata — the member's stratum table, the one its decoder interns into, so
// a record's slot comes with its parsed header. Slots are never serialized:
// checkpoints carry chains by name, and floors not at all.
//
// The minimum is incremental: cache holds the result of the last full scan
// and every change to an entry goes through stamp, which keeps it exact, so
// a record costs O(1) instead of a walk over every chain and floor. The
// cache's validity rule is on wmCache.
type watermarkTracker struct {
	idle   time.Duration
	strata *stream.SourceTable
	// floorsOnly marks a tracker above the leaf: its producers are members,
	// bounded by their floors, and no chain is kept.
	floorsOnly bool

	producers []*producer
	byFrom    map[string]*producer
	last      *producer // the producer the previous look-up returned

	ownedFn func() []int // owned input partitions; nil: the lanes consumed from
	laneSet []int        // cached owned lanes (refreshed on unknown-lane sight)

	cache wmCache
	scans int // full scans run (tests bound it)

	// revivals counts stamps on entries that had aged out: chains or floors
	// back from idle. lastBeat is the owning member's last beat and
	// beatRevivals the count then (see keepaliveDue).
	revivals     int
	lastBeat     time.Time
	beatRevivals int
}

// wmCache is the result of a watermarkTracker's last full scan, kept exact
// by stamp until something it cannot account for happens:
//
//   - the entry set changes (a chain, floor or placeholder is created or
//     deleted): dropped;
//   - an entry the scan left out as idle is stamped, so it is alive again:
//     dropped. That covers the unheard placeholders too — one that is not
//     idle blocks, and a blocked result is never cached;
//   - the last entry sitting at the minimum is raised: dropped. Per-entry
//     watermarks are monotone, so while atMin entries still hold min no
//     raise elsewhere can move it, and none can undercut it;
//   - the clock leaves [at, until]: not served. until is at most
//     min(seen)+idle over the included entries, the earliest instant one of
//     them can turn idle (never — eosWatermark — when none can); an entry
//     excluded as idle at `at` stays idle at any later instant until it is
//     stamped, which drops the cache.
//
// A blocked result has no minimum (the scan stops at the first live
// placeholder), so there is nothing to cache.
type wmCache struct {
	valid bool
	min   time.Time // minimum over included entries; zero when there are none
	atMin int       // included entries sitting exactly at min
	at    time.Time // the scan's clock reading
	until time.Time // last instant the included set is known to hold (idle > 0)
}

// newWatermarkTracker returns an empty tracker over strata, the stratum
// table whose slots foldSlot is handed: a member passes its window store's,
// the one its decoder parses with (engine.newTracker).
func newWatermarkTracker(idle time.Duration, strata *stream.SourceTable) *watermarkTracker {
	return &watermarkTracker{
		idle:   idle,
		strata: strata,
		byFrom: make(map[string]*producer),
	}
}

// producerOf returns from's entries, registering the producer on first
// sight. Records arrive in runs from one producer, so the previous answer
// is checked before the table.
func (t *watermarkTracker) producerOf(from string) *producer {
	if p := t.last; p != nil && p.from == from {
		return p
	}
	p := t.byFrom[from]
	if p == nil {
		p = &producer{from: from}
		t.byFrom[from] = p
		t.producers = append(t.producers, p)
	}
	t.last = p
	return p
}

// grown returns s extended with empty entries to hold index i.
func grown[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

func containsLane(lanes []int, lane int) bool {
	for _, l := range lanes {
		if l == lane {
			return true
		}
	}
	return false
}

// refreshOwned installs the current owned-lane set: floors for lanes no
// longer owned are dropped (their records now flow to another member, whose
// own floors guard them) and missing floors for every known producer ×
// owned lane are materialized as placeholders aged from now.
func (t *watermarkTracker) refreshOwned(lanes []int, now time.Time) {
	t.cache.valid = false
	t.laneSet = lanes
	for _, p := range t.producers {
		for l := range p.lanes {
			if p.lanes[l].live && !containsLane(t.laneSet, l) {
				p.lanes[l] = sourceMark{}
			}
		}
		if p.floors {
			t.materialize(p, now)
		}
	}
}

func (t *watermarkTracker) materialize(p *producer, now time.Time) {
	for _, l := range t.laneSet {
		p.lanes = grown(p.lanes, l)
		if !p.lanes[l].live {
			p.lanes[l] = sourceMark{seen: now, live: true}
			t.cache.valid = false
		}
	}
}

// ensureFloors registers one producer into the floor universe, materializing
// its per-lane placeholders across the owned set. The nameless producer has
// no floors.
func (t *watermarkTracker) ensureFloors(p *producer, now time.Time) {
	if p.from == "" || p.floors {
		return
	}
	p.floors = true
	t.materialize(p, now)
}

// observeLane max-folds one consumed stamp into its (producer, lane) floor.
// Producers stamp outbound records monotonically in production order (the
// dataWatermark / outboundWatermark ladder), so per-lane FIFO guarantees
// every record still queued behind this one on the same lane carries a
// stamp at least this high — the floor is a sound per-lane close bound. A
// zero instant refreshes liveness without promising anything.
func (t *watermarkTracker) observeLane(p *producer, lane int, at, now time.Time) {
	if p.from == "" {
		return
	}
	t.ensureFloors(p, now)
	p.lanes = grown(p.lanes, lane)
	m := &p.lanes[lane]
	if !m.live {
		*m = sourceMark{seen: now, live: true} // born alive: its first stamp is no revival
		t.cache.valid = false
	}
	t.stamp(m, at, now)
}

// aged reports whether m is excluded from the minimum at clock reading now:
// silent past the idle timeout, and not an end-of-stream promise.
func (t *watermarkTracker) aged(m *sourceMark, now time.Time) bool {
	return t.idle > 0 && now.Sub(m.seen) > t.idle && m.wm.Before(eosHorizon)
}

// stamp is the one way an existing entry changes: the watermark max-folds
// at (a zero instant promises nothing) and the arrival clock is refreshed.
// It keeps the cached minimum exact, or drops it (see wmCache), and counts
// the entry as revived if it had aged out.
func (t *watermarkTracker) stamp(m *sourceMark, at, now time.Time) {
	c := &t.cache
	switch {
	case !t.cacheCovers(now):
		c.valid = false
		if t.aged(m, now) {
			t.revivals++
		}
	case t.aged(m, c.at):
		// While the cache covers now, an entry is aged at now exactly when it
		// was at the scan: one the scan left out stays aged until stamped,
		// and one it included cannot age before c.until.
		c.valid = false
		t.revivals++
	case at.After(m.wm) && m.wm.Equal(c.min):
		c.atMin--
		c.valid = c.atMin > 0
	}
	if at.After(m.wm) {
		m.wm = at
	}
	m.seen = now
}

// cacheCovers reports whether the cached scan still describes the tracker at
// clock reading now. Without an idle timeout nothing depends on the clock.
func (t *watermarkTracker) cacheCovers(now time.Time) bool {
	c := &t.cache
	return c.valid && (t.idle <= 0 || !(now.Before(c.at) || now.After(c.until)))
}

// foldSlot routes one record's piggybacked watermark into the tracker: the
// lane floor first (the transport-level promise the stamp actually makes),
// then, at the leaf, the chain of the record's sub-stream — slot in the
// stratum table — it semantically belongs to. End-of-stream promises resolve
// the producer's chains outright — the producer's floors, lifted lane by
// lane as its terminal broadcast copies are consumed, keep the bound below
// any of its data still queued on other lanes. Above the leaf a real stamp
// only resolves the producer's placeholder: its floors represent it.
// Consuming a record off a lane the cached owned set does not list re-reads
// the assignment — the cheap signal that a rebalance granted this member new
// partitions.
func (t *watermarkTracker) foldSlot(wm mq.Watermark, slot int32, lane int, now time.Time) {
	if !containsLane(t.laneSet, lane) {
		t.refreshOwned(t.ownedWith(lane), now)
	}
	if wm.From == "" && wm.At.IsZero() {
		return
	}
	p := t.producerOf(wm.From)
	t.observeLane(p, lane, wm.At, now)
	switch {
	case wm.At.IsZero():
		t.refresh(p, now)
	case t.floorsOnly:
		p.heard = true
		t.dropExpect(p)
	case !wm.At.Before(eosHorizon):
		t.resolveEOS(p, now)
	default:
		t.stampChain(p, slot, wm.At, now)
	}
}

// ownedWith returns the owned lanes once a record was consumed off lane: the
// consumer's assignment where the context reports one, else the lanes
// consumed from so far — lane among them either way (mid-rebalance, trust
// consumption).
func (t *watermarkTracker) ownedWith(lane int) []int {
	var lanes []int
	if t.ownedFn != nil {
		lanes = t.ownedFn()
	} else {
		lanes = slices.Clone(t.laneSet)
	}
	if !containsLane(lanes, lane) {
		lanes = append(lanes, lane)
	}
	return lanes
}

// expect registers a producer that is statically known (from the compiled
// plan) to feed this node before it has sent anything: a placeholder entry
// with a zero watermark that holds the node's watermark back until the
// producer's first record arrives. Without expectations a node could only
// learn of an upstream chain by hearing from it — and a sibling chain's
// watermark could close windows the unheard chain still holds data for
// (pumps race; there is no cross-producer ordering). A producer that never
// speaks (an unused source slot, a shard member owning no partitions) ages
// out through the idle timeout like any silent chain.
func (t *watermarkTracker) expect(from string, now time.Time) {
	p := t.producerOf(from)
	t.ensureFloors(p, now)
	if !p.expect.live {
		t.setExpect(p, now)
	}
}

// setExpect (re)installs p's placeholder, alive at now.
func (t *watermarkTracker) setExpect(p *producer, now time.Time) {
	p.expect = sourceMark{seen: now, live: true}
	t.cache.valid = false
}

// dropExpect dissolves p's placeholder, if it has one.
func (t *watermarkTracker) dropExpect(p *producer) {
	if p.expect.live {
		p.expect = sourceMark{}
		t.cache.valid = false
	}
}

// chain returns p's chain for slot, creating it — alive at now — if it is
// not there yet, and reports whether it was created.
func (t *watermarkTracker) chain(p *producer, slot int32, now time.Time) (m *sourceMark, created bool) {
	p.chains = grown(p.chains, int(slot))
	m = &p.chains[slot]
	if !m.live {
		*m = sourceMark{seen: now, live: true}
		p.slots = append(p.slots, slot)
		p.heard = true
		t.cache.valid = false
		created = true
	}
	return m, created
}

// stampChain folds one piggybacked watermark at into p's chain for the
// sub-stream of slot, observed at arrival-clock instant now. Per-chain
// watermarks are monotone; the arrival stamp always refreshes (a record of
// any vintage proves the chain is alive). A new chain resolves the
// producer's expectation placeholder: its real chains now represent it.
func (t *watermarkTracker) stampChain(p *producer, slot int32, at, now time.Time) {
	m, created := t.chain(p, slot, now)
	if created {
		t.dropExpect(p)
	}
	t.stamp(m, at, now)
}

// resolveEOS resolves one producer's end of stream: every chain it owns is
// raised to the end-of-stream watermark and its expectation placeholder is
// dissolved. Folding the promise chain-by-chain instead would strand the
// drain: a sign-off for a sub-stream the member has not heard yet creates a
// chain, while the heard chains' stale marks pin the minimum below the
// windows the final flush must close. Resolving wholesale is safe because
// the producer's lane floors stay put — data still queued on another lane
// keeps its floor (and so the bound) down until it is consumed there.
func (t *watermarkTracker) resolveEOS(p *producer, now time.Time) {
	t.dropExpect(p)
	t.cache.valid = false
	for _, s := range p.slots {
		t.stamp(&p.chains[s], eosWatermark, now)
	}
}

// refresh is a keepalive from p: the producer said "alive, nothing to
// promise yet". A producer this tracker has never heard real watermarks
// from gets (or keeps) an expectation placeholder — alive-but-unpromising
// must hold the minimum, exactly like a statically-expected producer that
// has not spoken, or a sibling's flush could close windows the producer
// is still buffering data for.
func (t *watermarkTracker) refresh(p *producer, now time.Time) {
	if !p.expect.live && !p.heard {
		t.setExpect(p, now)
		return
	}
	if p.expect.live {
		t.stamp(&p.expect, time.Time{}, now)
	}
	for _, s := range p.slots {
		t.stamp(&p.chains[s], time.Time{}, now)
	}
}

// restoreChain installs one chain from a checkpoint, stamped alive at now. A
// real chain resolves its producer's expectation placeholder, exactly as
// stampChain would have; a serialized placeholder (no sub-stream, zero wm)
// stands as one. Above the leaf there are no chains to install: an entry
// that is not a placeholder only records that its producer was heard.
func (t *watermarkTracker) restoreChain(from string, src stream.SourceID, wm, now time.Time) {
	p := t.producerOf(from)
	if src == "" && wm.IsZero() {
		t.setExpect(p, now)
		return
	}
	if !wm.IsZero() {
		t.dropExpect(p)
	}
	if t.floorsOnly {
		p.heard = true
		return
	}
	m, _ := t.chain(p, t.strata.Slot(src), now)
	*m = sourceMark{wm: wm, seen: now, live: true}
	t.cache.valid = false
}

// eachChain calls fn on every chain and placeholder, by producer origin and
// sub-stream name ("" for a placeholder).
func (t *watermarkTracker) eachChain(fn func(from string, src stream.SourceID, m *sourceMark)) {
	for _, p := range t.producers {
		if p.expect.live {
			fn(p.from, "", &p.expect)
		}
		for _, s := range p.slots {
			fn(p.from, t.strata.ID(s), &p.chains[s])
		}
	}
}

// watermark returns the node's current low watermark: the minimum over
// non-idle chains, or the zero time when nothing qualifies — no data yet,
// everything idle, or an expected producer still unheard (event time then
// simply does not advance).
func (t *watermarkTracker) watermark(now time.Time) time.Time {
	wm, _ := t.watermarkState(now)
	return wm
}

// allStale reports that no entry can ever advance this watermark again
// without new input: every tracked entry has been silent past the idle
// timeout and none promises end-of-stream. Steady-state that just means
// "wait"; at quiesce, when no further input can arrive, a member in this
// state buffers windows nothing will ever close — the signal to force an
// end-of-stream drain. Never true with aging disabled (idle <= 0, where
// silence is indistinguishable from patience) or before anything was
// tracked.
func (t *watermarkTracker) allStale(now time.Time) bool {
	tracked := false
	return t.idle > 0 && t.eachMark(func(m *sourceMark) bool {
		tracked = true
		return t.aged(m, now)
	}) && tracked
}

// watermarkState is watermark plus the reason a zero came back: blocked
// reports that a non-idle expectation placeholder is holding the node —
// as opposed to the tracker being empty or fully idle. Merging layers (the
// live root sweeper) must treat a blocked member as a veto, not as a member
// with no opinion. It answers from the cached scan while that still covers
// now, and scans otherwise.
func (t *watermarkTracker) watermarkState(now time.Time) (wm time.Time, blocked bool) {
	if t.cacheCovers(now) {
		return t.cache.min, false
	}
	return t.scan(now)
}

// scan computes the watermark from scratch — the minimum over every chain
// and floor not aged out at now — and caches it with what stamp needs to
// keep it exact: how many entries sit at the minimum, and how long the
// included set holds.
func (t *watermarkTracker) scan(now time.Time) (wm time.Time, blocked bool) {
	t.scans++
	t.cache.valid = false
	c := wmCache{valid: true, at: now}
	var oldest time.Time // earliest arrival stamp among included entries that can age
	if !t.eachMark(func(m *sourceMark) bool {
		if t.aged(m, now) {
			return true // idle chain or floor: excluded from the minimum
		}
		if m.wm.IsZero() {
			return false // expected producer (or untouched lane) unheard
		}
		switch {
		case c.atMin == 0 || m.wm.Before(c.min):
			c.min, c.atMin = m.wm, 1
		case m.wm.Equal(c.min):
			c.atMin++
		}
		if m.wm.Before(eosHorizon) && (oldest.IsZero() || m.seen.Before(oldest)) {
			oldest = m.seen
		}
		return true
	}) {
		return time.Time{}, true
	}
	c.until = eosWatermark
	if !oldest.IsZero() {
		c.until = oldest.Add(t.idle)
	}
	t.cache = c
	return c.min, false
}

// nextAging returns the first instant after now at which the watermark can
// change without a record: the cached minimum's horizon (wmCache.until),
// past which an entry it counts may have aged out, or — while an unheard
// producer blocks the minimum and nothing is cached — the earliest instant any
// entry not yet aged can age. Zero when nothing can age: aging is off, or
// every entry is aged already or an end-of-stream promise. It is the idle
// deadline of an edge member's pump and, for the root members, the sweeper's.
func (t *watermarkTracker) nextAging(now time.Time) time.Time {
	if t.idle <= 0 {
		return time.Time{}
	}
	if !t.cacheCovers(now) {
		t.scan(now)
	}
	if c := &t.cache; c.valid {
		if c.until.Equal(eosWatermark) {
			return time.Time{}
		}
		return c.until.Add(time.Nanosecond)
	}
	var next time.Time
	t.eachMark(func(m *sourceMark) bool {
		if !t.aged(m, now) && m.wm.Before(eosHorizon) {
			next = earlier(next, m.seen.Add(t.idle+time.Nanosecond))
		}
		return true
	})
	return next
}

// staleAt returns the instant allStale turns true without new input — the
// last chain or floor ageing out — or zero when it never can: aging off,
// nothing tracked, or an end-of-stream promise among the entries.
func (t *watermarkTracker) staleAt() time.Time {
	if t.idle <= 0 {
		return time.Time{}
	}
	var last time.Time
	if !t.eachMark(func(m *sourceMark) bool {
		if m.seen.After(last) {
			last = m.seen
		}
		return m.wm.Before(eosHorizon)
	}) || last.IsZero() {
		return time.Time{}
	}
	return last.Add(t.idle + time.Nanosecond)
}

// earlier returns the earlier of two deadlines, where zero means none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// eachMark calls fn on every chain, placeholder and floor until fn returns
// false, and reports whether it never did.
func (t *watermarkTracker) eachMark(fn func(*sourceMark) bool) bool {
	for _, p := range t.producers {
		if p.expect.live && !fn(&p.expect) {
			return false
		}
		for _, s := range p.slots {
			if !fn(&p.chains[s]) {
				return false
			}
		}
		for l := range p.lanes {
			if p.lanes[l].live && !fn(&p.lanes[l]) {
				return false
			}
		}
	}
	return true
}

// active reports whether any entry holds a live promise at now: not aged
// out, and a real watermark. A member with none has nothing to re-assert
// upstream — nothing heard yet, or everything aged out — and beating anyway
// would keep it artificially fresh at its parent, re-introducing the stall
// the idle timeout exists to break.
func (t *watermarkTracker) active(now time.Time) bool {
	return !t.eachMark(func(m *sourceMark) bool { return t.aged(m, now) || m.wm.IsZero() })
}

// keepaliveDivisor sets how often a member with nothing to advance re-asserts
// liveness: every IdleTimeout/keepaliveDivisor since its last beat. A
// parent ages an entry out only after a whole IdleTimeout of silence, so a
// beat each quarter leaves three quarters of the horizon for queueing between
// the beat and the parent consuming it.
const keepaliveDivisor = 4

// keepaliveDue reports whether the member owning this tracker, at a
// punctuation that advanced nothing, must re-assert liveness upstream. A beat
// (beat) is the member's promise on every lane of its parent topic: an
// advance's, or a keepalive's. One is due when the member has never sent one;
// when a chain or floor came back from idle since (the member went silent
// while it had nothing active, so its parent may have aged it out); or, with
// aging on, once a quarter of the idle timeout has passed.
// With aging off nothing ages, so after the first presence beat a keepalive
// carries no information.
func (t *watermarkTracker) keepaliveDue(now time.Time) bool {
	return t.lastBeat.IsZero() || t.revivals != t.beatRevivals ||
		t.idle > 0 && now.Sub(t.lastBeat) >= t.idle/keepaliveDivisor
}

// nextKeepalive returns the instant keepaliveDue turns true, read at now:
// now itself when a beat is due already, zero when none will be without new
// input. A keepalive goes out only while an entry is active, so while none is
// — nothing heard yet, or everything aged out — nothing is due: only a record
// can make an entry active again, and the member re-reads its deadline after
// every record.
func (t *watermarkTracker) nextKeepalive(now time.Time) time.Time {
	var at time.Time
	switch {
	case t.lastBeat.IsZero() || t.revivals != t.beatRevivals:
		at = now
	case t.idle > 0:
		at = t.lastBeat.Add(t.idle / keepaliveDivisor)
	default:
		return time.Time{}
	}
	if !at.After(now) && !t.active(now) {
		return time.Time{}
	}
	return at
}

// beat records a beat sent at now.
func (t *watermarkTracker) beat(now time.Time) {
	t.lastBeat, t.beatRevivals = now, t.revivals
}

// heartbeat returns a zero-item batch for src: the payload that carries a
// watermark upstream without data — a valve's end-of-stream sign-off, a
// member's beat. Ingesting it is a no-op everywhere; only the piggybacked
// watermark and the arrival stamp matter.
func heartbeat(src stream.SourceID) stream.Batch {
	return stream.Batch{Source: src, Weight: 1}
}
