package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
)

// scanOracle is the from-scratch answer at now — the tracker's own scan, run
// without letting it refresh the cache under test.
func scanOracle(wt *watermarkTracker, now time.Time) (time.Time, bool) {
	cache, scans := wt.cache, wt.scans
	wm, blocked := wt.scan(now)
	wt.cache, wt.scans = cache, scans
	return wm, blocked
}

// activeOracle is activeSources as it was before the scratch reuse: a fresh
// set per call, sorted for comparison.
func activeOracle(wt *watermarkTracker, now time.Time) []string {
	set := make(map[stream.SourceID]bool)
	wt.eachChain(func(_ string, src stream.SourceID, m *sourceMark) {
		if wt.idle > 0 && now.Sub(m.seen) > wt.idle && m.wm.Before(eosHorizon) {
			return
		}
		if !m.wm.IsZero() {
			set[src] = true
		}
	})
	out := make([]string, 0, len(set))
	for src := range set {
		out = append(out, string(src))
	}
	sort.Strings(out)
	return out
}

// TestWatermarkCacheEqualsScan drives a tracker through seeded random
// histories — expectations, data stamps, keepalives, end-of-stream, owned-lane
// changes — over 5 producers × 12 sub-streams × 4 lanes, on a clock that
// creeps, jumps and occasionally runs backwards, and holds the cached
// watermark to the from-scratch scan after every step.
func TestWatermarkCacheEqualsScan(t *testing.T) {
	const (
		producers = 5
		subs      = 12
		laneCount = 4
		steps     = 400
		seeds     = 320
	)
	idles := []time.Duration{0, 25 * time.Millisecond, 150 * time.Millisecond, 2 * time.Second}
	served := 0 // answers that came from the cache, not from a scan
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wt := newWatermarkTracker(idles[seed%int64(len(idles))], stream.NewSourceTable())
		owned := []int{0, 1, 2, 3}
		if seed%3 != 0 { // a third of the histories run without lane floors
			wt.ownedFn = func() []int { return append([]int(nil), owned...) }
		}
		now := time.Unix(5000, 0)
		ticks := make([]int, producers) // per-producer event-time tick
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 3:
				now = now.Add(400 * time.Millisecond)
			case r < 6:
				now = now.Add(-time.Duration(rng.Intn(40)) * time.Millisecond)
			default:
				now = now.Add(time.Duration(rng.Intn(9)) * time.Millisecond)
			}
			p := rng.Intn(producers)
			from := fmt.Sprintf("p%d", p)
			sub := rng.Intn(subs)
			src := stream.SourceID(fmt.Sprintf("s%d", sub))
			lane := sub % laneCount
			switch r := rng.Intn(100); {
			case r < 4 && step < 40:
				// Expectations are registered before the producers speak; one
				// made later would hold a no-idle tracker blocked for good.
				wt.expect(from, now)
			case r < 12:
				wt.fold(mq.Watermark{From: from}, src, lane, now) // keepalive
			case r < 14:
				wt.fold(mq.Watermark{From: from, At: eosWatermark}, src, rng.Intn(laneCount), now)
			case r < 17:
				owned = owned[:0]
				for l := 0; l < laneCount; l++ {
					if rng.Intn(4) > 0 {
						owned = append(owned, l)
					}
				}
				if wt.ownedFn != nil {
					wt.refreshOwned(append([]int(nil), owned...), now)
				}
			default:
				// Ticks quantize the stamps, so many chains share the
				// minimum; a straggler stamps a few ticks behind.
				if rng.Intn(6) == 0 {
					ticks[p]++
				}
				at := simEpoch.Add(time.Duration(ticks[p]-rng.Intn(3)) * 5 * time.Millisecond)
				wt.fold(mq.Watermark{From: from, At: at}, src, lane, now)
			}
			// The root's ticker asks with its own clock reading, which may
			// trail the pump's.
			ask := now
			if rng.Intn(10) == 0 {
				ask = now.Add(-time.Duration(rng.Intn(5)) * time.Millisecond)
			}
			wantWM, wantBlocked := scanOracle(wt, ask)
			before := wt.scans
			gotWM, gotBlocked := wt.watermarkState(ask)
			if wt.scans == before {
				served++
			}
			if !gotWM.Equal(wantWM) || gotBlocked != wantBlocked {
				t.Fatalf("seed %d step %d: watermarkState = (%v, %v), scan says (%v, %v)",
					seed, step, gotWM, gotBlocked, wantWM, wantBlocked)
			}
			got := make([]string, 0, subs)
			for _, s := range wt.activeSources(ask) {
				got = append(got, string(s))
			}
			sort.Strings(got)
			if want := activeOracle(wt, ask); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: activeSources = %v, want %v", seed, step, got, want)
			}
		}
	}
	// The property is vacuous if every answer was a fresh scan.
	if served < seeds*steps/4 {
		t.Fatalf("only %d of %d answers came from the cache", served, seeds*steps)
	}
}

// tickFolds folds one tick's stamp into every (producer, sub-stream) chain in
// the order given, asking for the watermark after each record like a pump.
func tickFolds(wt *watermarkTracker, order []int, subs, lanes int, at, now time.Time) time.Time {
	var wm time.Time
	for _, i := range order {
		from, sub := fromNames[i/subs], i%subs
		wt.fold(mq.Watermark{From: from, At: at}, subNames[sub], sub%lanes, now)
		wm = wt.watermark(now)
	}
	return wm
}

var (
	fromNames = func() []string {
		out := make([]string, 4)
		for i := range out {
			out[i] = fmt.Sprintf("edge-%d", i)
		}
		return out
	}()
	subNames = func() []stream.SourceID {
		out := make([]stream.SourceID, 256)
		for i := range out {
			out[i] = stream.SourceID(fmt.Sprintf("cell-%03d", i))
		}
		return out
	}()
)

// TestWatermarkScansPerTick pins the cost model: 4 producers × 256 sub-streams
// stamped tick by tick in arbitrary order scan once per tick — when the last
// chain leaves the old minimum — plus once per entry that first appears.
func TestWatermarkScansPerTick(t *testing.T) {
	const subs, lanes, ticks = 256, 4, 50
	wt := newWatermarkTracker(time.Second, stream.NewSourceTable())
	wt.ownedFn = func() []int { return []int{0, 1, 2, 3} }
	rng := rand.New(rand.NewSource(21))
	order := rng.Perm(len(fromNames) * subs)
	now := time.Unix(9000, 0)
	tickAt := func(k int) time.Time { return simEpoch.Add(time.Duration(k) * 5 * time.Millisecond) }

	tickFolds(wt, order, subs, lanes, tickAt(0), now)
	entries := 0
	wt.eachMark(func(*sourceMark) bool { entries++; return true })
	if wt.scans > entries {
		t.Fatalf("first tick: %d scans for %d new entries", wt.scans, entries)
	}
	base := wt.scans
	for k := 1; k <= ticks; k++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		now = now.Add(5 * time.Millisecond)
		if wm := tickFolds(wt, order, subs, lanes, tickAt(k), now); !wm.Equal(tickAt(k)) {
			t.Fatalf("tick %d: watermark %v, want %v", k, wm, tickAt(k))
		}
	}
	if got := wt.scans - base; got > ticks {
		t.Fatalf("%d ticks over %d entries cost %d scans, want at most one per tick", ticks, entries, got)
	}
}

// BenchmarkWatermarkFold256 is the per-record tracker cost of an edge member
// over 4 producers × 256 sub-streams: fold the record's stamp by its
// sub-stream's slot, then ask for the watermark. CI gates its allocations at
// zero.
func BenchmarkWatermarkFold256(b *testing.B) {
	const subs, lanes = 256, 4
	wt := newWatermarkTracker(time.Second, stream.NewSourceTable())
	wt.ownedFn = func() []int { return []int{0, 1, 2, 3} }
	chains := len(fromNames) * subs
	// A member's decoder hands the tracker each record's slot with its header.
	slots := make([]int32, subs)
	for i := range slots {
		slots[i] = wt.strata.Slot(subNames[i])
	}
	order := rand.New(rand.NewSource(1)).Perm(chains)
	now := time.Unix(9000, 0)
	tickFolds(wt, order, subs, lanes, simEpoch, now)
	warm := wt.scans
	b.ReportAllocs()
	b.ResetTimer()
	var wm time.Time
	for i := 0; i < b.N; i++ {
		// One tick (5 ms of event time and of wall clock) per pass over the
		// chains, as a paced source produces them.
		k := i/chains + 1
		c := order[i%chains]
		from, sub := fromNames[c/subs], c%subs
		tick := time.Duration(k) * 5 * time.Millisecond
		wt.foldSlot(mq.Watermark{From: from, At: simEpoch.Add(tick)}, slots[sub], sub%lanes, now.Add(tick))
		wm = wt.watermark(now.Add(tick))
	}
	b.StopTimer()
	if wm.IsZero() {
		b.Fatal("watermark never formed")
	}
	b.ReportMetric(float64(wt.scans-warm)/float64(b.N), "scans/op")
}
