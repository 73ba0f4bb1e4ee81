package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
)

// fold is foldSlot for a record whose sub-stream the test names: the name is
// interned into the tracker's stratum table first, as a member's decoder
// would have.
func (t *watermarkTracker) fold(wm mq.Watermark, src stream.SourceID, lane int, now time.Time) (isNew bool) {
	return t.foldSlot(wm, t.strata.Slot(src), lane, now)
}

// mapTracker is the watermark tracker's entry set as it was kept before the
// stratum table: chains in a map keyed by (producer, sub-stream) — the
// placeholder under the empty sub-stream — and floors in a map keyed by
// (producer, lane). It models which entries exist and what they hold; the
// cached minimum is not modelled (TestWatermarkCacheEqualsScan holds that to
// the scan).
type mapTracker struct {
	idle    time.Duration
	chains  map[mapChainKey]*sourceMark
	lanes   map[mapLaneKey]*sourceMark
	known   map[string]bool
	laneSet []int
	ownedFn func() []int
}

type mapChainKey struct {
	from string
	src  stream.SourceID
}

type mapLaneKey struct {
	from string
	lane int
}

func newMapTracker(idle time.Duration) *mapTracker {
	return &mapTracker{
		idle:   idle,
		chains: make(map[mapChainKey]*sourceMark),
		lanes:  make(map[mapLaneKey]*sourceMark),
		known:  make(map[string]bool),
	}
}

func (t *mapTracker) stamp(m *sourceMark, at, now time.Time) {
	if at.After(m.wm) {
		m.wm = at
	}
	m.seen = now
}

func (t *mapTracker) refreshOwned(lanes []int, now time.Time) {
	t.laneSet = lanes
	for key := range t.lanes {
		if !containsLane(t.laneSet, key.lane) {
			delete(t.lanes, key)
		}
	}
	for from := range t.known {
		t.materialize(from, now)
	}
}

func (t *mapTracker) materialize(from string, now time.Time) {
	for _, l := range t.laneSet {
		if _, ok := t.lanes[mapLaneKey{from, l}]; !ok {
			t.lanes[mapLaneKey{from, l}] = &sourceMark{seen: now, live: true}
		}
	}
}

func (t *mapTracker) ensureFrom(from string, now time.Time) {
	if from == "" || t.known[from] {
		return
	}
	t.known[from] = true
	t.materialize(from, now)
}

func (t *mapTracker) observeLane(from string, lane int, at, now time.Time) {
	if len(t.laneSet) == 0 || from == "" {
		return
	}
	t.ensureFrom(from, now)
	m := t.lanes[mapLaneKey{from, lane}]
	if m == nil {
		m = &sourceMark{seen: now, live: true}
		t.lanes[mapLaneKey{from, lane}] = m
	}
	t.stamp(m, at, now)
}

func (t *mapTracker) fold(wm mq.Watermark, src stream.SourceID, lane int, now time.Time) (isNew bool) {
	if t.ownedFn != nil && !containsLane(t.laneSet, lane) {
		if lanes := t.ownedFn(); lanes == nil {
			t.ownedFn = nil
		} else {
			if !containsLane(lanes, lane) {
				lanes = append(lanes, lane)
			}
			t.refreshOwned(lanes, now)
		}
	}
	switch {
	case wm.At.IsZero():
		if wm.From != "" {
			t.observeLane(wm.From, lane, time.Time{}, now)
			t.keepalive(wm.From, now)
		}
	case !wm.At.Before(eosHorizon):
		t.observeLane(wm.From, lane, wm.At, now)
		t.resolveEOS(wm.From, now)
	default:
		t.observeLane(wm.From, lane, wm.At, now)
		isNew = t.update(wm, src, now)
	}
	return isNew
}

func (t *mapTracker) expect(from string, now time.Time) {
	t.ensureFrom(from, now)
	if _, ok := t.chains[mapChainKey{from: from}]; !ok {
		t.chains[mapChainKey{from: from}] = &sourceMark{seen: now, live: true}
	}
}

func (t *mapTracker) update(wm mq.Watermark, src stream.SourceID, now time.Time) (isNew bool) {
	t.ensureFrom(wm.From, now)
	m := t.chains[mapChainKey{wm.From, src}]
	if m == nil {
		m = &sourceMark{seen: now, live: true}
		t.chains[mapChainKey{wm.From, src}] = m
		isNew = true
		delete(t.chains, mapChainKey{from: wm.From})
	}
	t.stamp(m, wm.At, now)
	return isNew
}

func (t *mapTracker) resolveEOS(from string, now time.Time) {
	t.ensureFrom(from, now)
	delete(t.chains, mapChainKey{from: from})
	for key, m := range t.chains {
		if key.from == from {
			t.stamp(m, eosWatermark, now)
		}
	}
}

func (t *mapTracker) keepalive(from string, now time.Time) {
	t.ensureFrom(from, now)
	refreshed := false
	for key, m := range t.chains {
		if key.from == from {
			t.stamp(m, time.Time{}, now)
			refreshed = true
		}
	}
	if !refreshed {
		t.chains[mapChainKey{from: from}] = &sourceMark{seen: now, live: true}
	}
}

func (t *mapTracker) restoreChain(from string, src stream.SourceID, wm, now time.Time) {
	if !wm.IsZero() {
		delete(t.chains, mapChainKey{from: from})
	}
	t.chains[mapChainKey{from, src}] = &sourceMark{wm: wm, seen: now, live: true}
}

func markString(m *sourceMark) string {
	return fmt.Sprintf("%d/%d", m.wm.UnixNano(), m.seen.UnixNano())
}

// entries renders the model's entry set, sorted.
func (t *mapTracker) entries() []string {
	var out []string
	for k, m := range t.chains {
		out = append(out, fmt.Sprintf("chain %s %q %s", k.from, k.src, markString(m)))
	}
	for k, m := range t.lanes {
		out = append(out, fmt.Sprintf("lane %s %d %s", k.from, k.lane, markString(m)))
	}
	slices.Sort(out)
	return out
}

// trackerEntries renders the tracker's entry set like mapTracker.entries.
func trackerEntries(wt *watermarkTracker) []string {
	var out []string
	wt.eachChain(func(from string, src stream.SourceID, m *sourceMark) {
		out = append(out, fmt.Sprintf("chain %s %q %s", from, src, markString(m)))
	})
	for _, p := range wt.producers {
		for l := range p.lanes {
			if m := &p.lanes[l]; m.live {
				out = append(out, fmt.Sprintf("lane %s %d %s", p.from, l, markString(m)))
			}
		}
	}
	slices.Sort(out)
	return out
}

// modelState is the watermark, blocked flag, active sub-streams and staleness
// a from-scratch reading of the model's entries gives at now.
func (t *mapTracker) state(now time.Time) string {
	aged := func(m *sourceMark) bool { return t.idle > 0 && now.Sub(m.seen) > t.idle && m.wm.Before(eosHorizon) }
	var min time.Time
	blocked, stale := false, t.idle > 0 && len(t.chains) > 0
	active := map[stream.SourceID]bool{}
	visit := func(m *sourceMark) {
		if !aged(m) {
			stale = false
			if m.wm.IsZero() {
				blocked = true
			} else if min.IsZero() || m.wm.Before(min) {
				min = m.wm
			}
		}
	}
	for k, m := range t.chains {
		visit(m)
		if !aged(m) && !m.wm.IsZero() {
			active[k.src] = true
		}
	}
	for _, m := range t.lanes {
		visit(m)
	}
	if blocked {
		min = time.Time{}
	}
	var srcs []string
	for src := range active {
		srcs = append(srcs, string(src))
	}
	slices.Sort(srcs)
	return fmt.Sprintf("wm %d blocked %v stale %v active %v", min.UnixNano(), blocked, stale, srcs)
}

func trackerState(wt *watermarkTracker, now time.Time) string {
	wm, blocked := wt.watermarkState(now)
	var srcs []string
	for _, src := range wt.activeSources(now) {
		srcs = append(srcs, string(src))
	}
	return fmt.Sprintf("wm %d blocked %v stale %v active %v", wm.UnixNano(), blocked, wt.allStale(now), srcs)
}

// TestStratumTableTrackerMatchesMapModel drives the slot-indexed tracker and
// the map-keyed model through the same seeded histories — expectations,
// data stamps through slots from a stratum table whose slot order is not the
// name order, keepalives, end-of-stream, rebalances (refreshOwned and an
// unknown lane on consumption) and checkpoint restores — and holds the
// tracker's set of entries, and what it answers, to the model after every
// step.
func TestStratumTableTrackerMatchesMapModel(t *testing.T) {
	const (
		producers = 5
		subs      = 14
		laneCount = 5
		steps     = 250
		seeds     = 120
	)
	idles := []time.Duration{0, 30 * time.Millisecond, time.Second}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idle := idles[seed%int64(len(idles))]
		table := stream.NewSourceTable()
		for _, s := range rng.Perm(subs) { // slots in an order of their own
			table.Slot(stream.SourceID(fmt.Sprintf("s%02d", s)))
		}
		wt, model := newWatermarkTracker(idle, table), newMapTracker(idle)
		owned := []int{0, 1, 2}
		if seed%4 != 0 {
			ownedFn := func() []int { return append([]int(nil), owned...) }
			wt.ownedFn, model.ownedFn = ownedFn, ownedFn
		}
		now := time.Unix(7000, 0)
		for step := 0; step < steps; step++ {
			now = now.Add(time.Duration(rng.Intn(25)) * time.Millisecond)
			from := fmt.Sprintf("p%d", rng.Intn(producers))
			src := stream.SourceID(fmt.Sprintf("s%02d", rng.Intn(subs)))
			lane := rng.Intn(laneCount)
			at := simEpoch.Add(time.Duration(step/4+rng.Intn(6)) * 5 * time.Millisecond)
			var what string
			switch r := rng.Intn(100); {
			case r < 5:
				what = "expect"
				wt.expect(from, now)
				model.expect(from, now)
			case r < 15:
				what = "keepalive"
				wm := mq.Watermark{From: from}
				wt.foldSlot(wm, table.Slot(src), lane, now)
				model.fold(wm, src, lane, now)
			case r < 18:
				what = "eos"
				wm := mq.Watermark{From: from, At: eosWatermark}
				wt.foldSlot(wm, table.Slot(src), lane, now)
				model.fold(wm, src, lane, now)
			case r < 23:
				what = "rebalance"
				owned = owned[:0]
				for l := 0; l < laneCount; l++ {
					if rng.Intn(3) > 0 {
						owned = append(owned, l)
					}
				}
				if wt.ownedFn != nil {
					wt.refreshOwned(append([]int(nil), owned...), now)
					model.refreshOwned(append([]int(nil), owned...), now)
				}
			case r < 28:
				what = "restore"
				var wm time.Time
				switch rng.Intn(3) {
				case 0:
					src = "" // a serialized placeholder
				case 1:
					wm = at
				}
				wt.restoreChain(from, src, wm, now)
				model.restoreChain(from, src, wm, now)
			default:
				what = "data"
				wm := mq.Watermark{From: from, At: at}
				if got, want := wt.foldSlot(wm, table.Slot(src), lane, now), model.fold(wm, src, lane, now); got != want {
					t.Fatalf("seed %d step %d: fold reports new chain %v, model %v", seed, step, got, want)
				}
			}
			if got, want := trackerEntries(wt), model.entries(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): entries\n%v\nmodel\n%v", seed, step, what, got, want)
			}
			if got, want := trackerState(wt, now), model.state(now); got != want {
				t.Fatalf("seed %d step %d (%s): %s, model %s", seed, step, what, got, want)
			}
		}
	}
}

// BenchmarkIngestRecord256 is a member's per-record path at the paced
// workload's record shape — four items, one of 256 sub-streams, one of four
// producers, each record carrying its producer's watermark: parse the header
// (interning the sub-stream, its slot with it), decode the items into their
// window's Ψ (ingestWire → Node.IngestWire), fold the watermark by slot and
// read the minimum. Every pass over the 1 024 records lands in one window,
// which is closed and recycled between passes with the timer stopped. CI
// gates its allocations at zero.
func BenchmarkIngestRecord256(b *testing.B) {
	const subs, items = 256, 4
	var late lateCounter
	ew := newEventWindows(hopWindow, 0, &late, func() *Node {
		return NewNode("edge", WHSFactory()(0, 0, 7), EffectiveFractionBudget{Fraction: 0.1})
	})
	ew.ingestStamped = true // each pass reopens the window the previous one closed
	wt := newWatermarkTracker(time.Second, ew.strata)
	wt.ownedFn = func() []int { return []int{0, 1, 2, 3} }
	records := len(fromNames) * subs
	payloads := make([][]byte, records)
	for i := range payloads {
		src := subNames[i%subs]
		batch := stream.Batch{Source: src, Weight: 1, Items: make([]stream.Item, items)}
		for j := range batch.Items {
			batch.Items[j] = stream.Item{Source: src, Value: float64(j), Ts: simEpoch.Add(time.Duration(i) * time.Microsecond)}
		}
		payloads[i] = batch.Marshal()
	}
	order := rand.New(rand.NewSource(1)).Perm(records)
	now := time.Unix(9000, 0)
	closeAll := func() { ew.recycle(ew.advance(eosWatermark.Add(-time.Hour))) }
	var wm time.Time
	record := func(i int) {
		c := order[i%records]
		tick := time.Duration(i/records) * 5 * time.Millisecond
		h, err := stream.ParseHeader(payloads[c], ew.strata)
		if err != nil {
			b.Fatal(err)
		}
		ew.ingestWire(h)
		wt.foldSlot(mq.Watermark{From: fromNames[c/subs], At: simEpoch.Add(tick)}, h.Slot, c%subs%4, now.Add(tick))
		wm = wt.watermark(now.Add(tick))
	}
	warm := 3 * records // every slab class, node and slot the shape needs
	for i := 0; i < warm; i++ {
		if record(i); (i+1)%records == 0 {
			closeAll()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := warm; i < warm+b.N; i++ {
		if record(i); (i+1)%records == 0 {
			b.StopTimer()
			closeAll()
			b.StartTimer()
		}
	}
	b.StopTimer()
	if wm.IsZero() {
		b.Fatal("watermark never formed")
	}
}
