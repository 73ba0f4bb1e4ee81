package core

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Scenario-breadth cross-mode suite: sliding windows, group-by top-k, and
// quantiles with bounds, pinned between the simulated and the live runner.
// The two runners execute the same compiled plan and observe windows at the
// same point (root emit, after the empty-window skip), so at census budget —
// where sampling cannot diverge on arrival order — every query class must
// agree per window within float-addition-order tolerance, at every
// {Partitions, RootShards, LayerShards} combination.

// relClose compares within crossModeTolerance relative error, treating
// near-zero pairs (e.g. census variances) as equal.
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return m < 1e-12 || d/m <= crossModeTolerance
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// breadthQueries is the full mixed register: plain aggregates beside
// parameterized group-by and order-statistic kinds.
func breadthQueries() []query.Kind {
	return []query.Kind{query.Sum, query.Count, query.TopKOf(3), query.QuantileOf(0.5)}
}

// pushBreadthRun is pushEventRun with the query register, sliding slide, and
// parallelism knobs open — the breadth suite sweeps all three.
func pushBreadthRun(t *testing.T, spec topology.TreeSpec, queries []query.Kind, slide int,
	partitions, rootShards int, layerShards []int,
	lateness time.Duration, cost CostFunction, perSlot [][]stream.Item) *LiveResult {
	t.Helper()
	s, err := OpenLive(nil, LiveConfig{
		Spec:            spec,
		NewSampler:      WHSFactory(),
		Cost:            cost,
		Window:          10 * time.Millisecond,
		Queries:         queries,
		Slide:           slide,
		Partitions:      partitions,
		RootShards:      rootShards,
		LayerShards:     layerShards,
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

// assertWindowBreadthEqual compares one live window against its sim twin
// across every query class: bit-equal counts, rel-tolerance sums, identical
// top-k ranking with matching group estimates, matching quantile values and
// intervals, and matching sliding composites — all with finite bounds.
func assertWindowBreadthEqual(t *testing.T, i int, sw, lw WindowResult, queries []query.Kind, slide int) {
	t.Helper()
	if !lw.Start.Equal(sw.Start) || !lw.End.Equal(sw.End) {
		t.Fatalf("window %d bounds live [%v,%v) vs sim [%v,%v)", i, lw.Start, lw.End, sw.Start, sw.End)
	}
	for _, kind := range queries {
		sr, lr := sw.Result(kind), lw.Result(kind)
		switch {
		case kind == query.Count:
			if sr.Estimate.Value != lr.Estimate.Value {
				t.Fatalf("window %d count live %.2f vs sim %.2f", i, lr.Estimate.Value, sr.Estimate.Value)
			}
		default:
			if !relClose(sr.Estimate.Value, lr.Estimate.Value) {
				t.Fatalf("window %d %v estimate live %.6f vs sim %.6f", i, kind, lr.Estimate.Value, sr.Estimate.Value)
			}
			if !relClose(sr.Estimate.Variance, lr.Estimate.Variance) {
				t.Fatalf("window %d %v variance live %.6g vs sim %.6g", i, kind, lr.Estimate.Variance, sr.Estimate.Variance)
			}
		}
		if !finite(lr.Bound()) || !finite(sr.Bound()) {
			t.Fatalf("window %d %v bound not finite (live %g, sim %g)", i, kind, lr.Bound(), sr.Bound())
		}
		if kind.IsTopK() {
			if len(lr.Groups) != len(sr.Groups) {
				t.Fatalf("window %d top-k live %d groups vs sim %d", i, len(lr.Groups), len(sr.Groups))
			}
			for g := range sr.Groups {
				sg, lg := sr.Groups[g], lr.Groups[g]
				if sg.Source != lg.Source {
					t.Fatalf("window %d top-k rank %d live %q vs sim %q", i, g, lg.Source, sg.Source)
				}
				if !relClose(sg.Sum.Value, lg.Sum.Value) || !relClose(sg.Count, lg.Count) {
					t.Fatalf("window %d top-k group %q live (%.6f, %.2f) vs sim (%.6f, %.2f)",
						i, sg.Source, lg.Sum.Value, lg.Count, sg.Sum.Value, sg.Count)
				}
			}
		}
		if kind.IsQuantile() {
			if sr.Quantile == nil || lr.Quantile == nil {
				t.Fatalf("window %d quantile result missing (sim %v, live %v)", i, sr.Quantile, lr.Quantile)
			}
			if !relClose(sr.Quantile.Value, lr.Quantile.Value) ||
				!relClose(sr.Quantile.Lo, lr.Quantile.Lo) || !relClose(sr.Quantile.Hi, lr.Quantile.Hi) {
				t.Fatalf("window %d quantile live %.6f [%.6f,%.6f] vs sim %.6f [%.6f,%.6f]", i,
					lr.Quantile.Value, lr.Quantile.Lo, lr.Quantile.Hi,
					sr.Quantile.Value, sr.Quantile.Lo, sr.Quantile.Hi)
			}
			if sr.Quantile.SampleSize != lr.Quantile.SampleSize {
				t.Fatalf("window %d quantile zeta live %d vs sim %d", i, lr.Quantile.SampleSize, sr.Quantile.SampleSize)
			}
		}
	}
	if slide >= 2 {
		if len(sw.Sliding) == 0 || len(lw.Sliding) != len(sw.Sliding) {
			t.Fatalf("window %d sliding live %d entries vs sim %d", i, len(lw.Sliding), len(sw.Sliding))
		}
		for j := range sw.Sliding {
			ss, ls := sw.Sliding[j], lw.Sliding[j]
			if ss.Kind != ls.Kind || ss.Panes != ls.Panes {
				t.Fatalf("window %d sliding[%d] live (%v, %d panes) vs sim (%v, %d panes)",
					i, j, ls.Kind, ls.Panes, ss.Kind, ss.Panes)
			}
			if !relClose(ss.Estimate.Value, ls.Estimate.Value) || !relClose(ss.Estimate.Variance, ls.Estimate.Variance) {
				t.Fatalf("window %d sliding %v live (%.6f, %.6g) vs sim (%.6f, %.6g)", i, ss.Kind,
					ls.Estimate.Value, ls.Estimate.Variance, ss.Estimate.Value, ss.Estimate.Variance)
			}
			if !finite(ls.Bound()) || !finite(ss.Bound()) {
				t.Fatalf("window %d sliding %v bound not finite", i, ss.Kind)
			}
		}
	}
}

// TestCrossModeQueryBreadth is the acceptance test for the scenario-breadth
// expansion: one simulated census run with the mixed query register and a
// 3-pane slide anchors the comparison, and live runs at three parallelism
// combos — each pushing the same workload fully shuffled — must reproduce
// every window's estimates for every query class.
func TestCrossModeQueryBreadth(t *testing.T) {
	spec := topology.Testbed() // 8 sources, 1 s windows
	const slots, perSlot, slide = 8, 40, 3
	span := 4 * time.Second
	items := eventItems(slots, perSlot, span)
	census := EffectiveFractionBudget{Fraction: 1}
	queries := breadthQueries()

	sim, err := RunSim(SimConfig{
		LiveConfig: LiveConfig{
			Spec:            spec,
			Source:          func(i int) workload.Source { return &sliceSource{items: items[i]} },
			NewSampler:      WHSFactory(),
			Cost:            census,
			Queries:         queries,
			Slide:           slide,
			Seed:            21,
			AllowedLateness: span,
		},
		Duration: span,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if len(sim.Windows) != 4 {
		t.Fatalf("sim closed %d windows, want 4", len(sim.Windows))
	}
	for i, w := range sim.Windows {
		// Only the additive kinds slide; the pane count saturates at slide.
		if len(w.Sliding) != 2 {
			t.Fatalf("sim window %d has %d sliding entries, want 2 (Sum, Count)", i, len(w.Sliding))
		}
		wantPanes := i + 1
		if wantPanes > slide {
			wantPanes = slide
		}
		if w.Sliding[0].Panes != wantPanes {
			t.Fatalf("sim window %d composed %d panes, want %d", i, w.Sliding[0].Panes, wantPanes)
		}
	}

	combos := []struct {
		name        string
		partitions  int
		rootShards  int
		layerShards []int
	}{
		{"all-ones", 1, 1, nil},
		{"layer-sharded", 4, 2, []int{2, 2}},
		{"fully-sharded-uneven", 8, 4, []int{4, 3}},
	}
	rng := xrand.New(0xB4EAD)
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			shuffled := make([][]stream.Item, slots)
			for s := range items {
				perm := append([]stream.Item(nil), items[s]...)
				for i := len(perm) - 1; i > 0; i-- {
					j := int(rng.Uint64() % uint64(i+1))
					perm[i], perm[j] = perm[j], perm[i]
				}
				shuffled[s] = perm
			}
			live := pushBreadthRun(t, spec, queries, slide,
				combo.partitions, combo.rootShards, combo.layerShards, span, census, shuffled)
			if live.Produced != int64(slots*perSlot) {
				t.Fatalf("live produced %d, want %d", live.Produced, slots*perSlot)
			}
			if len(live.Windows) != len(sim.Windows) {
				t.Fatalf("live closed %d windows, sim %d", len(live.Windows), len(sim.Windows))
			}
			for i := range sim.Windows {
				assertWindowBreadthEqual(t, i, sim.Windows[i], live.Windows[i], queries, slide)
			}
			// Eq. 8 accounting: Σ window counts + late drops == produced.
			var liveCount float64
			for _, w := range live.Windows {
				liveCount += w.EstimatedInput
			}
			assertCountInvariant(t, "live breadth "+combo.name,
				liveCount+float64(live.LateDropped), float64(live.Produced))
		})
	}
	var simCount float64
	for _, w := range sim.Windows {
		simCount += w.EstimatedInput
	}
	assertCountInvariant(t, "sim breadth", simCount+float64(sim.LateDropped), float64(sim.Produced))
}

// recomputeSliding recomputes window i's sliding composite for one kind from
// the retained pane history: the sum — values and variances both — of every
// emitted window whose start falls inside the slide-wide horizon ending at
// window i. Skipped (never-emitted) panes contribute nothing, matching the
// slider's zero-estimate gap fill.
func recomputeSliding(windows []WindowResult, i int, kind query.Kind, slide int, pane time.Duration) (value, variance float64) {
	horizon := windows[i].Start.Add(-time.Duration(slide-1) * pane)
	for j := 0; j <= i; j++ {
		if windows[j].Start.Before(horizon) {
			continue
		}
		est := windows[j].Result(kind).Estimate
		value += est.Value
		variance += est.Variance
	}
	return value, variance
}

// TestSlidingPaneHistoryProperty pins the pane-composition identity in both
// runners: every reported sliding estimate equals the estimate recomputed
// from the retained pane history — values AND variances — including across a
// silent pane, which the slider must gap-fill with a zero estimate rather
// than letting a stale pane linger in the horizon.
func TestSlidingPaneHistoryProperty(t *testing.T) {
	spec := topology.Testbed()
	const slots, perSlot, slide = 8, 40, 3
	span := 5 * time.Second
	full := eventItems(slots, perSlot, span)

	// Silence window [2s, 3s): its pane is never emitted, so sliding
	// composites spanning it must see a zero pane in its place.
	gapFrom, gapTo := simEpoch.Add(2*time.Second), simEpoch.Add(3*time.Second)
	items := make([][]stream.Item, slots)
	var kept int
	for s := range full {
		for _, it := range full[s] {
			if !it.Ts.Before(gapFrom) && it.Ts.Before(gapTo) {
				continue
			}
			items[s] = append(items[s], it)
		}
		kept += len(items[s])
	}

	pane := spec.Window
	check := func(label string, windows []WindowResult) {
		t.Helper()
		if len(windows) != 4 { // 5 panes minus the silenced one
			t.Fatalf("%s: %d windows, want 4", label, len(windows))
		}
		for i, w := range windows {
			for _, kind := range []query.Kind{query.Sum, query.Count} {
				sl, ok := w.SlidingResult(kind)
				if !ok {
					t.Fatalf("%s window %d: no sliding result for %v", label, i, kind)
				}
				wantV, wantVar := recomputeSliding(windows, i, kind, slide, pane)
				if !relClose(sl.Estimate.Value, wantV) {
					t.Fatalf("%s window %d %v sliding %.6f, history recomputes %.6f",
						label, i, kind, sl.Estimate.Value, wantV)
				}
				if !relClose(sl.Estimate.Variance, wantVar) {
					t.Fatalf("%s window %d %v sliding variance %.6g, history recomputes %.6g",
						label, i, kind, sl.Estimate.Variance, wantVar)
				}
			}
		}
		// The gap must bite: the first window after the silent pane composes
		// strictly less than a full 3-pane horizon of its neighbours.
		after := windows[2] // [3s, 4s): horizon covers the silent [2s,3s) pane
		sl, _ := after.SlidingResult(query.Count)
		var dense float64
		for i := 0; i <= 2; i++ {
			dense += windows[i].Result(query.Count).Estimate.Value
		}
		if sl.Estimate.Value >= dense {
			t.Fatalf("%s: gap window composite %.1f not reduced vs dense 3-pane sum %.1f",
				label, sl.Estimate.Value, dense)
		}
	}

	sim, err := RunSim(SimConfig{
		LiveConfig: LiveConfig{
			Spec:            spec,
			Source:          func(i int) workload.Source { return &sliceSource{items: items[i]} },
			NewSampler:      WHSFactory(),
			Cost:            EffectiveFractionBudget{Fraction: 1},
			Queries:         []query.Kind{query.Sum, query.Count},
			Slide:           slide,
			Seed:            21,
			AllowedLateness: span,
		},
		Duration: span,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if sim.Produced != int64(kept) {
		t.Fatalf("sim generated %d, want %d", sim.Produced, kept)
	}
	check("sim", sim.Windows)

	live := pushBreadthRun(t, spec, []query.Kind{query.Sum, query.Count}, slide,
		4, 2, []int{2, 2}, span, EffectiveFractionBudget{Fraction: 1}, items)
	check("live", live.Windows)

	// The property also holds at a sampled fraction, where pane estimates
	// carry real variance: composition must add variances, not recompute.
	sampled := pushBreadthRun(t, spec, []query.Kind{query.Sum, query.Count}, slide,
		4, 2, []int{2, 2}, span, EffectiveFractionBudget{Fraction: 0.3}, items)
	for i, w := range sampled.Windows {
		sl, ok := w.SlidingResult(query.Sum)
		if !ok {
			t.Fatalf("sampled window %d: no sliding Sum", i)
		}
		wantV, wantVar := recomputeSliding(sampled.Windows, i, query.Sum, slide, pane)
		if !relClose(sl.Estimate.Value, wantV) || !relClose(sl.Estimate.Variance, wantVar) {
			t.Fatalf("sampled window %d sliding (%.6f, %.6g), history recomputes (%.6f, %.6g)",
				i, sl.Estimate.Value, sl.Estimate.Variance, wantV, wantVar)
		}
		if wantVar > 0 && sl.Bound() <= 0 {
			t.Fatalf("sampled window %d: positive variance but bound %g", i, sl.Bound())
		}
	}
}

// TestTopKQuantilePermutationInvariance extends the permutation property to
// the parameterized kinds: at census budget any push order yields the same
// top-k ranking (sources and sums) and the same quantile value and interval.
func TestTopKQuantilePermutationInvariance(t *testing.T) {
	spec := topology.Testbed()
	const slots, perSlot = 8, 25
	span := 3 * time.Second
	items := eventItems(slots, perSlot, span)
	queries := breadthQueries()
	topk, med := query.TopKOf(3), query.QuantileOf(0.5)

	trials := 3
	if testing.Short() {
		trials = 2
	}
	type winKey struct {
		start    int64
		ranking  string
		topSum   float64
		quantile float64
		lo, hi   float64
	}
	var baseline []winKey
	rng := xrand.New(0xFACADE)
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
		res := pushBreadthRun(t, spec, queries, 0, 4, 2, []int{2, 2},
			span, EffectiveFractionBudget{Fraction: 1}, perSlotItems)
		keys := make([]winKey, len(res.Windows))
		for i, w := range res.Windows {
			tr, qr := w.Result(topk), w.Result(med)
			if qr.Quantile == nil {
				t.Fatalf("trial %d window %d: quantile missing", trial, i)
			}
			var ranking string
			for _, g := range tr.Groups {
				ranking += string(g.Source) + ","
			}
			keys[i] = winKey{
				start:    w.Start.UnixNano(),
				ranking:  ranking,
				topSum:   tr.Estimate.Value,
				quantile: qr.Quantile.Value,
				lo:       qr.Quantile.Lo,
				hi:       qr.Quantile.Hi,
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
			b, k := baseline[i], keys[i]
			if k.start != b.start || k.ranking != b.ranking {
				t.Fatalf("trial %d window %d: ranking %q vs baseline %q", trial, i, k.ranking, b.ranking)
			}
			if !relClose(k.topSum, b.topSum) || !relClose(k.quantile, b.quantile) ||
				!relClose(k.lo, b.lo) || !relClose(k.hi, b.hi) {
				t.Fatalf("trial %d window %d: %+v vs baseline %+v", trial, i, k, b)
			}
		}
	}
}

// TestTopKQuantileShardInvariance pins shard-count invariance directly: under
// a fixed seed at census budget, re-deploying the same plan across different
// {Partitions, RootShards, LayerShards} leaves the top-k ranking and the
// quantile answer of every window unchanged — sharding only partitions the
// input that weight compounding makes split-insensitive.
func TestTopKQuantileShardInvariance(t *testing.T) {
	spec := topology.Testbed()
	const slots, perSlot = 8, 25
	span := 3 * time.Second
	items := eventItems(slots, perSlot, span)
	queries := breadthQueries()
	topk, med := query.TopKOf(3), query.QuantileOf(0.5)

	base := pushBreadthRun(t, spec, queries, 0, 1, 1, nil,
		span, EffectiveFractionBudget{Fraction: 1}, items)
	sharded := pushBreadthRun(t, spec, queries, 0, 8, 4, []int{4, 3},
		span, EffectiveFractionBudget{Fraction: 1}, items)
	if len(base.Windows) == 0 || len(base.Windows) != len(sharded.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(base.Windows), len(sharded.Windows))
	}
	for i := range base.Windows {
		bw, sw := base.Windows[i], sharded.Windows[i]
		bt, st := bw.Result(topk), sw.Result(topk)
		if len(bt.Groups) != len(st.Groups) {
			t.Fatalf("window %d: %d vs %d top-k groups", i, len(bt.Groups), len(st.Groups))
		}
		for g := range bt.Groups {
			if bt.Groups[g].Source != st.Groups[g].Source ||
				!relClose(bt.Groups[g].Sum.Value, st.Groups[g].Sum.Value) {
				t.Fatalf("window %d rank %d: %q %.6f vs %q %.6f", i, g,
					bt.Groups[g].Source, bt.Groups[g].Sum.Value,
					st.Groups[g].Source, st.Groups[g].Sum.Value)
			}
		}
		bq, sq := bw.Result(med).Quantile, sw.Result(med).Quantile
		if bq == nil || sq == nil {
			t.Fatalf("window %d: quantile missing", i)
		}
		if !relClose(bq.Value, sq.Value) || !relClose(bq.Lo, sq.Lo) || !relClose(bq.Hi, sq.Hi) {
			t.Fatalf("window %d: quantile %.6f [%.6f,%.6f] vs %.6f [%.6f,%.6f]", i,
				bq.Value, bq.Lo, bq.Hi, sq.Value, sq.Lo, sq.Hi)
		}
	}
}

// TestQuantileBoundMonotoneInFraction pins the accuracy dial for order
// statistics: on a fixed seeded workload, raising the sampling fraction
// grows ζ, and the quantile's rank-CI interval — the reported bound — must
// shrink monotonically, reaching its minimum at census.
func TestQuantileBoundMonotoneInFraction(t *testing.T) {
	med := query.QuantileOf(0.5)
	fractions := []float64{0.05, 0.2, 1.0}
	widths := make([]float64, len(fractions))
	for fi, f := range fractions {
		sim, err := RunSim(SimConfig{
			LiveConfig: LiveConfig{
				Spec:       topology.Testbed(),
				Source:     microSource(9, 400),
				NewSampler: WHSFactory(),
				Cost:       EffectiveFractionBudget{Fraction: f},
				Queries:    []query.Kind{query.Count, med},
				Seed:       9,
			},
			Duration: 5 * time.Second,
		})
		if err != nil {
			t.Fatalf("RunSim fraction %g: %v", f, err)
		}
		if len(sim.Windows) == 0 {
			t.Fatalf("fraction %g closed no windows", f)
		}
		var width float64
		var n int
		for _, w := range sim.Windows {
			qr := w.Result(med).Quantile
			if qr == nil {
				t.Fatalf("fraction %g: quantile missing", f)
			}
			if qr.Hi < qr.Lo {
				t.Fatalf("fraction %g: inverted interval [%g, %g]", f, qr.Lo, qr.Hi)
			}
			bound := w.Result(med).Bound()
			if !finite(bound) || !relClose(bound, (qr.Hi-qr.Lo)/2) {
				t.Fatalf("fraction %g: bound %g vs half-width %g", f, bound, (qr.Hi-qr.Lo)/2)
			}
			width += qr.Hi - qr.Lo
			n++
		}
		widths[fi] = width / float64(n)
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] >= widths[i-1] {
			t.Fatalf("quantile interval not shrinking with fraction: %v at fractions %v", widths, fractions)
		}
	}
	if widths[len(widths)-1] <= 0 {
		t.Fatal("census interval collapsed to zero width: rank CI should stay positive")
	}
}
