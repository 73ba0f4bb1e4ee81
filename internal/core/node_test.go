package core

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

func mkItems(src stream.SourceID, vals ...float64) []stream.Item {
	out := make([]stream.Item, len(vals))
	for i, v := range vals {
		out[i] = stream.Item{Source: src, Value: v, Ts: epoch.Add(time.Duration(i) * time.Millisecond)}
	}
	return out
}

func estCount(batches []stream.Batch) float64 {
	var c float64
	for _, b := range batches {
		c += b.Weight * float64(len(b.Items))
	}
	return c
}

func whsNode(id string, budget int) *Node {
	return NewNode(id, sample.NewWHS(xrand.New(42)), FixedBudget{Size: budget})
}

func TestNodeBasicIntervalInvariant(t *testing.T) {
	n := whsNode("n", 5)
	n.IngestItems(mkItems("a", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	out := n.CloseInterval()
	if got := estCount(out); math.Abs(got-10) > 1e-9 {
		t.Fatalf("estimated count = %g, want 10", got)
	}
	kept := 0
	for _, b := range out {
		kept += len(b.Items)
	}
	if kept != 5 {
		t.Fatalf("kept %d items on budget 5", kept)
	}
}

func TestNodeResetsBetweenIntervals(t *testing.T) {
	n := whsNode("n", 100)
	n.IngestItems(mkItems("a", 1, 2, 3))
	n.CloseInterval()
	if n.Observed() != 0 {
		t.Fatalf("Observed = %d after close, want 0", n.Observed())
	}
	n.IngestItems(mkItems("a", 4))
	out := n.CloseInterval()
	if len(out) != 1 || len(out[0].Items) != 1 {
		t.Fatalf("second interval leaked state: %+v", out)
	}
}

func TestNodeEmptyIntervalYieldsNothing(t *testing.T) {
	n := whsNode("n", 10)
	if out := n.CloseInterval(); out != nil {
		t.Fatalf("empty interval produced %v", out)
	}
}

func TestNodeWeightCarryAcrossIntervals(t *testing.T) {
	// The Fig. 3 rule: items arriving in a later interval than their weight
	// use the sub-stream's last known weight.
	n := whsNode("n", 100)
	n.IngestBatch(stream.Batch{Source: "s", Weight: 1.5, Items: mkItems("s", 5, 2)})
	n.CloseInterval()

	n.IngestItems(mkItems("s", 3, 4)) // weightless arrival
	out := n.CloseInterval()
	if len(out) != 1 {
		t.Fatalf("got %d batches, want 1", len(out))
	}
	if out[0].Weight != 1.5 {
		t.Fatalf("carried weight = %g, want 1.5 (last known W_in)", out[0].Weight)
	}
}

func TestNodeMergesSameLineage(t *testing.T) {
	n := whsNode("n", 100)
	n.IngestBatch(stream.Batch{Source: "s", Weight: 2, Items: mkItems("s", 1)})
	n.IngestBatch(stream.Batch{Source: "s", Weight: 2, Items: mkItems("s", 2)})
	out := n.CloseInterval()
	if len(out) != 1 {
		t.Fatalf("same-lineage pairs not merged: %d batches", len(out))
	}
	if len(out[0].Items) != 2 {
		t.Fatalf("merged pair has %d items, want 2", len(out[0].Items))
	}
}

func TestNodeKeepsDistinctLineages(t *testing.T) {
	n := whsNode("n", 100)
	n.IngestBatch(stream.Batch{Source: "s", Weight: 2, Items: mkItems("s", 1)})
	n.IngestBatch(stream.Batch{Source: "s", Weight: 4, Items: mkItems("s", 2)})
	out := n.CloseInterval()
	if len(out) != 2 {
		t.Fatalf("distinct weights merged: %d batches, want 2", len(out))
	}
	if got := estCount(out); math.Abs(got-6) > 1e-9 {
		t.Fatalf("estimated count = %g, want 2+4=6", got)
	}
}

func TestNodeIngestEmptyBatchIgnored(t *testing.T) {
	n := whsNode("n", 10)
	n.IngestBatch(stream.Batch{Source: "s", Weight: 3})
	if n.Observed() != 0 {
		t.Fatal("empty batch counted as observed")
	}
}

// TestPaperFigure3EndToEnd replays the worked example of Fig. 3 across a
// three-node chain A → B → C and checks every number the paper states.
func TestPaperFigure3EndToEnd(t *testing.T) {
	// Node A: reservoir size 4; 6 items arrive in one interval (values
	// 1..6, "the index of the item is its value").
	nodeA := whsNode("A", 4)
	nodeA.IngestItems(mkItems("s", 1, 2, 3, 4, 5, 6))
	outA := nodeA.CloseInterval()
	if len(outA) != 1 {
		t.Fatalf("A emitted %d batches, want 1", len(outA))
	}
	if got := outA[0].Weight; got != 1.5 {
		t.Fatalf("A's weight = %g, want 6/4 = 1.5", got)
	}
	if len(outA[0].Items) != 4 {
		t.Fatalf("A sampled %d items, want 4", len(outA[0].Items))
	}

	// Node B: reservoir size 1. A's four samples arrive split across two
	// intervals of two items each; the second pair arrives weightless
	// (the weight came with interval v).
	nodeB := whsNode("B", 1)
	nodeB.IngestBatch(stream.Batch{Source: "s", Weight: 1.5, Items: outA[0].Items[:2]})
	outV := nodeB.CloseInterval()
	if len(outV) != 1 || outV[0].Weight != 3 {
		t.Fatalf("B interval v: weight = %v, want 1.5×2 = 3", outV)
	}
	if len(outV[0].Items) != 1 {
		t.Fatalf("B kept %d items, want 1", len(outV[0].Items))
	}

	nodeB.IngestItems(outA[0].Items[2:4]) // weight carried from interval v
	outV1 := nodeB.CloseInterval()
	if len(outV1) != 1 || outV1[0].Weight != 3 {
		t.Fatalf("B interval v+1: weight = %v, want carried 1.5×2 = 3", outV1)
	}

	// Root C: Θ gets both (3, {item}) pairs; the estimated count must be
	// exactly the 6 original items (Eq. 8), whatever was sampled.
	engine := query.NewEngine()
	root := NewRoot("C", sample.NewWHS(xrand.New(7)), FixedBudget{Size: 100}, engine, query.Sum, query.Count)
	root.IngestBatch(outV[0])
	root.IngestBatch(outV1[0])
	win, theta := root.CloseWindow(epoch.Add(time.Second))
	if got := win.Result(query.Count).Estimate.Value; math.Abs(got-6) > 1e-9 {
		t.Fatalf("estimated count at root = %g, want exactly 6 (Eq. 8)", got)
	}
	// The paper draws Θ as two (3, {item}) pairs; the root merges pairs of
	// identical lineage (same source, same weight), which is statistically
	// equivalent — both sampled items must survive with weight 3.
	thetaItems := 0
	for _, b := range theta {
		thetaItems += len(b.Items)
		if b.Weight != 3 {
			t.Fatalf("Θ pair weight = %g, want 3", b.Weight)
		}
	}
	if thetaItems != 2 {
		t.Fatalf("Θ holds %d items, want 2", thetaItems)
	}
	// The estimated sum is 3·x + 3·y for the two surviving items — e.g.
	// the paper's draw keeps items 5 and 3 giving 24. Bound the range.
	sum := win.Result(query.Sum).Estimate.Value
	if sum < 3*(1+1) || sum > 3*(6+6) {
		t.Fatalf("estimated sum %g outside feasible range [6, 36]", sum)
	}
}

func TestRootDefaultsToSumQuery(t *testing.T) {
	root := NewRoot("r", sample.NewWHS(xrand.New(1)), FixedBudget{Size: 10}, query.NewEngine())
	root.IngestItems(mkItems("a", 2, 4))
	win, _ := root.CloseWindow(epoch)
	if len(win.Results) != 1 || win.Results[0].Kind != query.Sum {
		t.Fatalf("default queries = %v, want [SUM]", win.Results)
	}
	if win.Result(query.Mean).Kind != 0 {
		t.Fatal("unregistered kind should return zero Result")
	}
}

func TestRootWindowBookkeeping(t *testing.T) {
	root := NewRoot("r", sample.NewWHS(xrand.New(1)), FixedBudget{Size: 100}, query.NewEngine(), query.Sum)
	root.IngestBatch(stream.Batch{Source: "a", Weight: 2, Items: mkItems("a", 1, 2, 3)})
	win, _ := root.CloseWindow(epoch.Add(time.Second))
	if win.SampleSize != 3 {
		t.Fatalf("SampleSize = %d, want 3", win.SampleSize)
	}
	if math.Abs(win.EstimatedInput-6) > 1e-9 {
		t.Fatalf("EstimatedInput = %g, want 6", win.EstimatedInput)
	}
	if !win.At.Equal(epoch.Add(time.Second)) {
		t.Fatalf("At = %v", win.At)
	}
}

func TestNodeWithEffectiveFractionBudget(t *testing.T) {
	// A second-layer node receiving an already-thinned stream (weight 10)
	// should pass it through: budget = f × (W·c) = 0.1 × (10·100) = 100 ≥
	// the 100 received items.
	n := NewNode("l2", sample.NewWHS(xrand.New(3)), EffectiveFractionBudget{Fraction: 0.1})
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 1
	}
	n.IngestBatch(stream.Batch{Source: "s", Weight: 10, Items: mkItems("s", vals...)})
	out := n.CloseInterval()
	if len(out) != 1 {
		t.Fatalf("got %d batches", len(out))
	}
	if len(out[0].Items) != 100 {
		t.Fatalf("second layer resampled to %d items; budget should cover all 100", len(out[0].Items))
	}
	if out[0].Weight != 10 {
		t.Fatalf("weight changed to %g, want 10", out[0].Weight)
	}
}

func TestNodeFirstLayerEffectiveFraction(t *testing.T) {
	// A first-layer node (weights 1) keeps the configured fraction.
	n := NewNode("l1", sample.NewWHS(xrand.New(3)), EffectiveFractionBudget{Fraction: 0.1})
	vals := make([]float64, 1000)
	n.IngestItems(mkItems("s", vals...))
	out := n.CloseInterval()
	kept := 0
	for _, b := range out {
		kept += len(b.Items)
	}
	if kept != 100 {
		t.Fatalf("kept %d, want 100 (10%% of 1000)", kept)
	}
}
