package core

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
	"github.com/approxiot/approxiot/internal/xrand"
)

// simEpoch mirrors the virtual-time origin RunSim pins its clock to; the
// cross-mode tests stamp event timestamps off it so the two modes see the
// same absolute window boundaries.
var simEpoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

func TestWindowFloor(t *testing.T) {
	w := time.Second
	cases := []struct{ ts, want int64 }{
		{0, 0},
		{1, 0},
		{int64(time.Second) - 1, 0},
		{int64(time.Second), int64(time.Second)},
		{int64(time.Second) + 5, int64(time.Second)},
		{-1, -int64(time.Second)},
		{-int64(time.Second), -int64(time.Second)},
	}
	for _, c := range cases {
		if got := windowFloor(c.ts, w); got != c.want {
			t.Fatalf("windowFloor(%d) = %d, want %d", c.ts, got, c.want)
		}
	}
}

func TestEventWindowsAssignAdvanceLate(t *testing.T) {
	var late lateCounter
	ew := newEventWindows(time.Second, 500*time.Millisecond, &late, func() *Node {
		return NewNode("n", WHSFactory()(0, 0, 1), FractionBudget{Fraction: 1})
	})
	at := func(d time.Duration) time.Time { return simEpoch.Add(d) }
	mk := func(src stream.SourceID, ds ...time.Duration) stream.Batch {
		items := make([]stream.Item, len(ds))
		for i, d := range ds {
			items[i] = stream.Item{Source: src, Value: 1, Ts: at(d)}
		}
		return stream.Batch{Source: src, Weight: 1, Items: items}
	}

	// Items across three windows, delivered out of order.
	ew.ingest(mk("a", 2500*time.Millisecond, 100*time.Millisecond, 1100*time.Millisecond, 200*time.Millisecond))
	if got := ew.buffered(); got != 4 {
		t.Fatalf("buffered %d, want 4", got)
	}

	// Watermark at 2.4s: window [0,1s) needs wm ≥ 1s+0.5s — closes; window
	// [1s,2s) needs wm ≥ 2.5s — stays open.
	closed := ew.advance(at(2400 * time.Millisecond))
	if len(closed) != 1 || closed[0].start != simEpoch.UnixNano() {
		t.Fatalf("closed %v, want exactly window 0", closed)
	}
	var n int
	for _, b := range closed[0].theta {
		n += len(b.Items)
	}
	if n != 2 {
		t.Fatalf("window 0 closed with %d items, want 2", n)
	}

	// A record for the closed window is late; one inside the horizon lands.
	ew.ingest(mk("a", 300*time.Millisecond))
	if late.items.Load() != 1 {
		t.Fatalf("late = %d, want 1", late.items.Load())
	}
	ew.ingest(mk("a", 1200*time.Millisecond))
	if late.items.Load() != 1 {
		t.Fatalf("in-horizon record counted late")
	}

	// A regressing watermark closes nothing and cannot reopen territory.
	if got := ew.advance(at(1000 * time.Millisecond)); got != nil {
		t.Fatalf("regressing watermark closed %v", got)
	}

	// End of stream flushes the rest in ascending order.
	rest := ew.advance(eosWatermark)
	if len(rest) != 2 || rest[0].start >= rest[1].start {
		t.Fatalf("final sweep %v, want windows 1s and 2s ascending", rest)
	}
	st := ew.stats()
	if st.Observed != 5 || st.Intervals != 3 {
		t.Fatalf("stats %+v, want 5 observed over 3 windows", st)
	}
}

func TestWatermarkTrackerMinAndIdle(t *testing.T) {
	wt := newWatermarkTracker(100*time.Millisecond, stream.NewSourceTable())
	wall := time.Unix(1000, 0)
	wmA := simEpoch.Add(3 * time.Second)
	wmB := simEpoch.Add(1 * time.Second)
	wt.foldSlot(mq.Watermark{From: "up", At: wmA}, wt.strata.Slot("a"), 0, wall)
	wt.foldSlot(mq.Watermark{From: "up", At: wmB}, wt.strata.Slot("b"), 0, wall)
	if got := wt.watermark(wall); !got.Equal(wmB) {
		t.Fatalf("watermark %v, want min %v", got, wmB)
	}
	// Watermarks are monotone per chain.
	wt.foldSlot(mq.Watermark{From: "up", At: simEpoch}, wt.strata.Slot("b"), 0, wall)
	if got := wt.watermark(wall); !got.Equal(wmB) {
		t.Fatalf("regressed to %v", got)
	}
	// Two chains carrying the same sub-stream ID are tracked separately:
	// the slower chain holds the minimum.
	wt.foldSlot(mq.Watermark{From: "up2", At: simEpoch.Add(500 * time.Millisecond)}, wt.strata.Slot("a"), 0, wall)
	if got := wt.watermark(wall); !got.Equal(simEpoch.Add(500 * time.Millisecond)) {
		t.Fatalf("shared-ID chains conflated: watermark %v", got)
	}
	// Everything but chain (up, a) goes idle: only it counts.
	wt.foldSlot(mq.Watermark{From: "up", At: wmA}, wt.strata.Slot("a"), 0, wall.Add(150*time.Millisecond))
	if got := wt.watermark(wall.Add(150 * time.Millisecond)); !got.Equal(wmA) {
		t.Fatalf("idle chain still held watermark at %v", got)
	}
	if !wt.active(wall.Add(150 * time.Millisecond)) {
		t.Fatal("the fresh chain (up, a) is not active")
	}
	if wt.active(wall.Add(251 * time.Millisecond)) {
		t.Fatal("active after every entry aged out")
	}
	// b resumes and is tracked again.
	wt.foldSlot(mq.Watermark{From: "up", At: wmB}, wt.strata.Slot("b"), 0, wall.Add(200*time.Millisecond))
	if got := wt.watermark(wall.Add(200 * time.Millisecond)); !got.Equal(wmB) {
		t.Fatalf("resumed chain not back in the min: %v", got)
	}
}

// sliceSource replays a fixed item list as a workload source: Generate
// returns the items whose event timestamp falls in [from, from+dt).
type sliceSource struct{ items []stream.Item }

func (s *sliceSource) Generate(from time.Time, dt time.Duration) []stream.Item {
	var out []stream.Item
	to := from.Add(dt)
	for _, it := range s.items {
		if !it.Ts.Before(from) && it.Ts.Before(to) {
			out = append(out, it)
		}
	}
	return out
}

var _ workload.Source = (*sliceSource)(nil)

// eventItems builds the deterministic cross-mode workload: per slot, one
// sub-stream with items spread over `span`, windows aligned to simEpoch.
func eventItems(slots int, perSlot int, span time.Duration) [][]stream.Item {
	out := make([][]stream.Item, slots)
	step := span / time.Duration(perSlot)
	for s := 0; s < slots; s++ {
		items := make([]stream.Item, perSlot)
		for k := 0; k < perSlot; k++ {
			items[k] = stream.Item{
				Source: stream.SourceID("s" + string(rune('0'+s))),
				Value:  0.5*float64(s+1) + 0.25*float64(k%17),
				Ts:     simEpoch.Add(time.Duration(k)*step + time.Duration(s)*time.Millisecond),
			}
		}
		out[s] = items
	}
	return out
}

// pushEventRun opens an event-time live session on spec and pushes each
// slot's items (already ordered or shuffled by the caller), then closes.
func pushEventRun(t *testing.T, spec topology.TreeSpec, lateness time.Duration, cost CostFunction, perSlot [][]stream.Item) *LiveResult {
	t.Helper()
	s, err := OpenLive(nil, LiveConfig{
		Spec:            spec,
		NewSampler:      WHSFactory(),
		Cost:            cost,
		Window:          10 * time.Millisecond,
		Queries:         []query.Kind{query.Sum, query.Count},
		Seed:            21,
		EventTime:       true,
		AllowedLateness: lateness,
	})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	for slot, items := range perSlot {
		ing, err := s.Ingester(slot)
		if err != nil {
			t.Fatalf("Ingester(%d): %v", slot, err)
		}
		// Copy: Push re-stamps Pub in place and the caller may reuse items.
		buf := append([]stream.Item(nil), items...)
		if err := ing.Push(buf...); err != nil {
			t.Fatalf("Push slot %d: %v", slot, err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	return res
}

// TestCrossModeEventTimeEquivalence is the acceptance suite: the simulated
// and the live runner drive the identical watermark machinery, so the same
// workload — pushed shuffled into the live tree, within AllowedLateness —
// must reproduce sim's per-window boundaries, exact per-window counts, and
// (at census budget, where sampling cannot diverge on arrival order) the
// same estimates. Records beyond the horizon land in LateDropped, never in
// a closed window.
func TestCrossModeEventTimeEquivalence(t *testing.T) {
	spec := topology.Testbed() // 8 sources, 1 s windows
	const slots, perSlot = 8, 40
	span := 4 * time.Second
	items := eventItems(slots, perSlot, span)
	census := EffectiveFractionBudget{Fraction: 1}

	sim, err := RunSim(SimConfig{
		Spec:            spec,
		Source:          func(i int) workload.Source { return &sliceSource{items: items[i]} },
		NewSampler:      WHSFactory(),
		Cost:            census,
		Duration:        span,
		Queries:         []query.Kind{query.Sum, query.Count},
		Seed:            21,
		AllowedLateness: span, // nothing late, however jittered
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if sim.Generated != slots*perSlot {
		t.Fatalf("sim generated %d, want %d", sim.Generated, slots*perSlot)
	}
	if sim.LateDropped != 0 {
		t.Fatalf("sim dropped %d items with full-span lateness", sim.LateDropped)
	}
	if len(sim.Windows) != 4 {
		t.Fatalf("sim closed %d windows, want 4", len(sim.Windows))
	}

	// Live: the same items, but each slot's stream fully shuffled — every
	// record still inside the lateness horizon.
	rng := xrand.New(77)
	shuffled := make([][]stream.Item, slots)
	for s := range items {
		perm := append([]stream.Item(nil), items[s]...)
		for i := len(perm) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		shuffled[s] = perm
	}
	live := pushEventRun(t, spec, span, census, shuffled)
	if live.Produced != int64(slots*perSlot) {
		t.Fatalf("live produced %d, want %d", live.Produced, slots*perSlot)
	}
	if live.LateDropped != 0 {
		t.Fatalf("live dropped %d items pushed within the horizon", live.LateDropped)
	}
	if len(live.Windows) != len(sim.Windows) {
		t.Fatalf("live closed %d windows, sim %d", len(live.Windows), len(sim.Windows))
	}
	for i, sw := range sim.Windows {
		lw := live.Windows[i]
		if !lw.Start.Equal(sw.Start) || !lw.End.Equal(sw.End) {
			t.Fatalf("window %d bounds live [%v,%v) vs sim [%v,%v)", i, lw.Start, lw.End, sw.Start, sw.End)
		}
		if lw.End.Sub(lw.Start) != spec.Window {
			t.Fatalf("window %d spans %v, want %v", i, lw.End.Sub(lw.Start), spec.Window)
		}
		sc, lc := sw.Result(query.Count).Estimate.Value, lw.Result(query.Count).Estimate.Value
		if sc != lc {
			t.Fatalf("window %d count live %.2f vs sim %.2f", i, lc, sc)
		}
		ss, ls := sw.Result(query.Sum).Estimate.Value, lw.Result(query.Sum).Estimate.Value
		if rel := math.Abs(ls-ss) / math.Abs(ss); rel > 1e-9 {
			t.Fatalf("window %d sum live %.6f vs sim %.6f (rel %.2e)", i, ls, ss, rel)
		}
	}
	var simCount, liveCount float64
	for i := range sim.Windows {
		simCount += sim.Windows[i].EstimatedInput
		liveCount += live.Windows[i].EstimatedInput
	}
	assertCountInvariant(t, "sim event-time", simCount, float64(sim.Generated))
	assertCountInvariant(t, "live event-time", liveCount, float64(live.Produced))
}

// TestEventTimePermutationInvariance is the property form: any permutation
// of a slot's records within the lateness horizon yields identical window
// results — bit-equal counts at any budget (Eq. 8 exactness is
// order-free), and bit-equal estimates at census budget (no sampling
// decision left to depend on order).
func TestEventTimePermutationInvariance(t *testing.T) {
	spec := topology.Testbed()
	const slots, perSlot = 8, 25
	span := 3 * time.Second
	items := eventItems(slots, perSlot, span)

	trials := 3
	if testing.Short() {
		trials = 2
	}
	type winKey struct {
		start int64
		count float64
		sum   float64
	}
	var baseline []winKey
	rng := xrand.New(0xFACE)
	for trial := 0; trial < trials; trial++ {
		perSlotItems := make([][]stream.Item, slots)
		for s := range items {
			perm := append([]stream.Item(nil), items[s]...)
			if trial > 0 { // trial 0 pushes in order: the reference
				for i := len(perm) - 1; i > 0; i-- {
					j := int(rng.Uint64() % uint64(i+1))
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			perSlotItems[s] = perm
		}
		res := pushEventRun(t, spec, span, EffectiveFractionBudget{Fraction: 1}, perSlotItems)
		if res.LateDropped != 0 {
			t.Fatalf("trial %d: dropped %d in-horizon items", trial, res.LateDropped)
		}
		keys := make([]winKey, len(res.Windows))
		for i, w := range res.Windows {
			keys[i] = winKey{
				start: w.Start.UnixNano(),
				count: w.Result(query.Count).Estimate.Value,
				sum:   w.Result(query.Sum).Estimate.Value,
			}
		}
		if trial == 0 {
			baseline = keys
			continue
		}
		if len(keys) != len(baseline) {
			t.Fatalf("trial %d: %d windows vs baseline %d", trial, len(keys), len(baseline))
		}
		for i := range keys {
			if keys[i].start != baseline[i].start || keys[i].count != baseline[i].count {
				t.Fatalf("trial %d window %d: %+v vs baseline %+v", trial, i, keys[i], baseline[i])
			}
			if rel := math.Abs(keys[i].sum-baseline[i].sum) / math.Abs(baseline[i].sum); rel > 1e-9 {
				t.Fatalf("trial %d window %d sum %.6f vs baseline %.6f", trial, i, keys[i].sum, baseline[i].sum)
			}
		}
	}

	// Sampled variant: the reservoir's choices may depend on order, but the
	// Eq. 8 count estimate must not.
	var counts []float64
	for trial := 0; trial < 2; trial++ {
		perSlotItems := make([][]stream.Item, slots)
		for s := range items {
			perm := append([]stream.Item(nil), items[s]...)
			if trial > 0 {
				for i := len(perm) - 1; i > 0; i-- {
					j := int(rng.Uint64() % uint64(i+1))
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			perSlotItems[s] = perm
		}
		res := pushEventRun(t, spec, span, EffectiveFractionBudget{Fraction: 0.3}, perSlotItems)
		var total float64
		for _, w := range res.Windows {
			total += w.EstimatedInput
		}
		assertCountInvariant(t, "sampled permutation", total, float64(slots*perSlot))
		counts = append(counts, total)
	}
	if math.Abs(counts[0]-counts[1]) > 1e-9 {
		t.Fatalf("count estimate depends on push order: %v", counts)
	}
}

// TestEventTimeLateDropped pins the late-data contract: records pushed past
// the lateness horizon are counted into LateDropped and the closed window's
// exact count does not change.
func TestEventTimeLateDropped(t *testing.T) {
	spec := topology.Testbed()
	const slots, perSlot = 8, 24
	span := 4 * time.Second
	items := eventItems(slots, perSlot, span)

	s, err := OpenLive(nil, LiveConfig{
		Spec:       spec,
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: 1},
		Window:     10 * time.Millisecond,
		Queries:    []query.Kind{query.Sum, query.Count},
		Seed:       7,
		EventTime:  true,
		// Zero lateness: a window closes the moment the watermark touches
		// its end.
		AllowedLateness: 0,
		IdleTimeout:     -1, // no idle exclusion: closes are watermark-driven only
	})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	for slot := range items {
		ing, err := s.Ingester(slot)
		if err != nil {
			t.Fatalf("Ingester: %v", err)
		}
		buf := append([]stream.Item(nil), items[slot]...)
		if err := ing.Push(buf...); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	// Wait until every leaf has processed its slot's stream (watermark at
	// slot max), so window 0 is closed territory at the leaves.
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().RootProcessed < int64(3*slots*perSlot/4) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Stragglers for window 0, one per slot — all beyond the horizon.
	const lateEach = 1
	for slot := 0; slot < slots; slot++ {
		ing, _ := s.Ingester(slot)
		lateItem := items[slot][0] // window 0
		lateItem.Value = 1e9       // would be unmissable if it leaked into a window
		if err := ing.Push(lateItem); err != nil {
			t.Fatalf("late push: %v", err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.LateDropped != int64(slots*lateEach) {
		t.Fatalf("LateDropped = %d, want %d", res.LateDropped, slots*lateEach)
	}
	var estimated float64
	for _, w := range res.Windows {
		estimated += w.EstimatedInput
		if w.Result(query.Sum).Estimate.Value > 1e8 {
			t.Fatalf("late item leaked into window starting %v", w.Start)
		}
	}
	// Every on-time item is in a window; the late ones are not.
	assertCountInvariant(t, "on-time", estimated, float64(slots*perSlot))
	if res.Produced != int64(slots*(perSlot+lateEach)) {
		t.Fatalf("produced %d", res.Produced)
	}
}

// TestEventTimeIdleSourceTimeout exercises the watermark-stall path: one
// silent sub-stream must not hold windows open forever — the wall-clock
// ticker (the retained processing-time ticker, acting as the idle-source
// timeout) excludes it from the watermark minimum and the tree's windows
// close without it.
func TestEventTimeIdleSourceTimeout(t *testing.T) {
	spec := topology.Testbed()
	s, err := OpenLive(nil, LiveConfig{
		Spec:            spec,
		NewSampler:      WHSFactory(),
		Cost:            EffectiveFractionBudget{Fraction: 1},
		Window:          10 * time.Millisecond,
		Queries:         []query.Kind{query.Count},
		Seed:            3,
		EventTime:       true,
		AllowedLateness: 0,
		IdleTimeout:     60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	wins := s.Windows()

	// The stalling source: one record, then silence.
	ingB, _ := s.Ingester(1)
	if err := ingB.Push(stream.Item{Source: "quiet", Value: 1, Ts: simEpoch.Add(100 * time.Millisecond)}); err != nil {
		t.Fatalf("push quiet: %v", err)
	}
	// The live source keeps pushing, 100 ms of event time per record: its
	// watermark races ahead, so windows become closeable — but only once
	// the quiet source ages out of the minimum. Event time never advances
	// in a fully-idle tree, so the pusher must stay live while we wait.
	ingA, _ := s.Ingester(0)
	stop := make(chan struct{})
	pusherDone := make(chan struct{})
	go func() {
		defer close(pusherDone)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = ingA.Push(stream.Item{Source: "busy", Value: 1, Ts: simEpoch.Add(time.Duration(k) * 100 * time.Millisecond)})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// A window must stream out while the session is still ingesting —
	// proof the idle timeout, not Close's end-of-stream sweep, unblocked
	// the pipeline.
	select {
	case w, ok := <-wins:
		if !ok {
			t.Fatal("windows channel closed early")
		}
		if !w.Start.Equal(simEpoch) {
			t.Fatalf("first window starts %v, want %v", w.Start, simEpoch)
		}
		// Window 0 holds the quiet source's record plus the busy source's
		// first ten (ts 0–900ms): the idle source's data participates in
		// the windows it reached, it just cannot hold them open.
		if got := w.Result(query.Count).Estimate.Value; got != 11 {
			t.Fatalf("window 0 count %.1f, want 11", got)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no window closed: idle source stalled the watermark")
	}
	close(stop)
	<-pusherDone
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.LateDropped != 0 {
		t.Fatalf("dropped %d items, want 0 (quiet's record was on time)", res.LateDropped)
	}
}

// TestEventTimeSimJitterExactCounts runs the simulated tree with link
// jitter reordering deliveries: per-source watermark ordering plus the
// ingest-before-watermark rule must keep every window's count exact with
// nothing dropped.
func TestEventTimeSimJitterExactCounts(t *testing.T) {
	res, err := RunSim(SimConfig{
		Spec:            topology.Testbed(),
		Source:          microSource(21, 500),
		NewSampler:      WHSFactory(),
		Cost:            EffectiveFractionBudget{Fraction: 0.25},
		Duration:        4 * time.Second,
		Queries:         []query.Kind{query.Sum, query.Count},
		Seed:            21,
		AllowedLateness: 200 * time.Millisecond,
		LinkJitter:      30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if res.LateDropped != 0 {
		t.Fatalf("jitter within the horizon dropped %d items", res.LateDropped)
	}
	var estimated float64
	last := int64(math.MinInt64)
	for _, w := range res.Windows {
		estimated += w.EstimatedInput
		if w.Start.IsZero() || !w.End.Equal(w.Start.Add(time.Second)) {
			t.Fatalf("window bounds [%v,%v)", w.Start, w.End)
		}
		if w.Start.UnixNano() <= last {
			t.Fatalf("windows out of event order")
		}
		last = w.Start.UnixNano()
	}
	assertCountInvariant(t, "sim jitter", estimated, float64(res.Generated))
}

// TestEventTimeIdleShardedRejected pins the liveness gate: with the idle
// exclusion disabled, a multi-member group could wait forever on an
// expected producer whose keys all hash to a sibling member's partitions,
// so the combination is rejected at open.
func TestEventTimeIdleShardedRejected(t *testing.T) {
	_, err := OpenLive(nil, LiveConfig{
		Spec:        topology.Testbed(),
		NewSampler:  WHSFactory(),
		Cost:        EffectiveFractionBudget{Fraction: 1},
		EventTime:   true,
		IdleTimeout: -1,
		Partitions:  2,
		RootShards:  2,
	})
	if err != ErrEventTimeIdleSharded {
		t.Fatalf("err = %v, want ErrEventTimeIdleSharded", err)
	}
	_, err = OpenLive(nil, LiveConfig{
		Spec:        topology.Testbed(),
		NewSampler:  WHSFactory(),
		Cost:        EffectiveFractionBudget{Fraction: 1},
		EventTime:   true,
		IdleTimeout: -1,
		Partitions:  2,
		LayerShards: []int{2},
	})
	if err != ErrEventTimeIdleSharded {
		t.Fatalf("layer-sharded err = %v, want ErrEventTimeIdleSharded", err)
	}
}

// TestEventTimeSRSStreaming: SRS windows by event time in both runners. The
// simulator's streaming edges forward every batch at once into the root's
// event windows, and the live runner, which has no streaming mode, windows
// SRS like every strategy. Either way the count estimate is exact: a keep
// probability of 1 keeps every item at weight 1, so nothing but a lost item
// could move it.
func TestEventTimeSRSStreaming(t *testing.T) {
	sim, err := RunSim(SimConfig{
		Spec:       topology.Testbed(),
		Source:     microSource(1, 100),
		NewSampler: SRSFactory(1),
		Cost:       FractionBudget{Fraction: 1},
		Duration:   time.Second,
		Queries:    []query.Kind{query.Sum, query.Count},
		Streaming:  true,
	})
	if err != nil {
		t.Fatalf("RunSim(SRS, Streaming): %v", err)
	}
	assertCountInvariant(t, "simulated SRS", sim.TotalEstimate(query.Count), float64(sim.Generated))
	s, err := OpenLive(nil, LiveConfig{
		Spec:       topology.Testbed(),
		NewSampler: SRSFactory(1),
		Cost:       FractionBudget{Fraction: 1},
		Window:     10 * time.Millisecond,
		Queries:    []query.Kind{query.Sum, query.Count},
		EventTime:  true,
	})
	if err != nil {
		t.Fatalf("OpenLive(SRS, EventTime): %v", err)
	}
	for slot, items := range eventItems(8, 50, 3*time.Second) {
		ing, err := s.Ingester(slot)
		if err != nil {
			t.Fatalf("Ingester(%d): %v", slot, err)
		}
		if err := ing.Push(items...); err != nil {
			t.Fatalf("Push slot %d: %v", slot, err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	assertCountInvariant(t, "SRS event time", res.EstimateCount, float64(res.Produced))
}
