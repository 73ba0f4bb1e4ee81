package core

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/xrand"
)

func TestSimResultHelpers(t *testing.T) {
	res, err := RunSim(testbedConfig(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes() <= 0 {
		t.Fatal("TotalBytes not accumulated")
	}
	var sum int64
	for _, b := range res.LayerBytes {
		sum += b
	}
	if res.TotalBytes() != sum {
		t.Fatalf("TotalBytes = %d, want Σ layers %d", res.TotalBytes(), sum)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
	for _, m := range res.LayerMessages {
		if m <= 0 {
			t.Fatalf("LayerMessages = %v, want all positive", res.LayerMessages)
		}
	}
	// AccuracyLoss for non-additive kinds reports 0 by contract.
	if got := res.AccuracyLoss(query.Mean); got != 0 {
		t.Fatalf("AccuracyLoss(Mean) = %g, want 0 (unsupported)", got)
	}
	if res.TruthSum == 0 {
		t.Fatal("TruthSum not recorded")
	}
}

func TestWindowResultLookup(t *testing.T) {
	w := WindowResult{Results: []query.Result{
		{Kind: query.Sum, Estimate: stats.Estimate{Value: 10}},
		{Kind: query.Count, Estimate: stats.Estimate{Value: 3}},
	}}
	if got := w.Result(query.Sum).Estimate.Value; got != 10 {
		t.Fatalf("Result(Sum) = %g", got)
	}
	if got := w.Result(query.Mean); got.Kind != 0 {
		t.Fatalf("Result(missing) = %+v, want zero", got)
	}
}

func TestFixedBudgetTree(t *testing.T) {
	// FixedBudget caps every node's interval at an absolute size — the
	// memory-constrained-edge configuration. The invariant must hold and
	// the root sample must respect the cap per window.
	cfg := testbedConfig(0) // fraction unused
	cfg.Cost = FixedBudget{Size: 200}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotCount := res.TotalEstimate(query.Count)
	if rel := math.Abs(gotCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("FixedBudget broke Eq. 8: %g vs %d", gotCount, res.Produced)
	}
	for _, w := range res.Windows {
		// Root keeps ≤ 200 + fairness floors (4 sub-streams, ≥1 each).
		if w.SampleSize > 250 {
			t.Fatalf("window sample %d exceeds fixed budget 200 materially", w.SampleSize)
		}
	}
}

func TestFailureDuringWholeRun(t *testing.T) {
	// A node down for the entire run: its subtree contributes nothing.
	cfg := testbedConfig(0.5)
	cfg.Failures = []Failure{{Layer: 1, Node: 0, At: 0, For: time.Hour}}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.TotalEstimate(query.Count)
	ratio := got / float64(res.Produced)
	// Layer-1 node 0 serves half the sources.
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("estimated/generated = %.3f with half the tree down, want ~0.5", ratio)
	}
}

func TestNodeIngestItemsGroupsRuns(t *testing.T) {
	// IngestItems groups consecutive same-source runs; interleaved sources
	// still land in the right strata.
	n := whsNode("n", 100)
	items := append(mkItems("a", 1, 2), mkItems("b", 3)...)
	items = append(items, mkItems("a", 4)...)
	n.IngestItems(items)
	out := n.CloseInterval()
	counts := map[string]int{}
	for _, b := range out {
		counts[string(b.Source)] += len(b.Items)
	}
	if counts["a"] != 3 || counts["b"] != 1 {
		t.Fatalf("strata counts = %v, want a:3 b:1", counts)
	}
}

func TestRootWithSRSSampler(t *testing.T) {
	// The root can run any strategy; with SRS at p=1 nothing is lost.
	root := NewRoot("r", sample.NewCoinFlipFraction(xrand.New(1), 1), FractionBudget{Fraction: 1},
		query.NewEngine(), query.Sum, query.Count)
	root.IngestItems(mkItems("a", 1, 2, 3))
	win, _ := root.CloseWindow(epoch)
	if got := win.Result(query.Count).Estimate.Value; got != 3 {
		t.Fatalf("COUNT = %g, want 3", got)
	}
}
