package sample

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// mkItems builds n items for one source with value = index.
func mkItems(src stream.SourceID, n int) []stream.Item {
	items := make([]stream.Item, n)
	base := time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)
	for i := range items {
		items[i] = stream.Item{Source: src, Value: float64(i), Ts: base.Add(time.Duration(i) * time.Millisecond)}
	}
	return items
}

// estimatedCount returns Σ|I|·W over batches, the left side of Eq. 8.
func estimatedCount(batches []stream.Batch) float64 {
	var c float64
	for _, b := range batches {
		c += float64(len(b.Items)) * b.Weight
	}
	return c
}

func TestReservoirKeepsAllWhenUnderCapacity(t *testing.T) {
	r := NewReservoir(10, xrand.New(1))
	items := mkItems("s", 7)
	r.AddAll(items)
	if r.Len() != 7 || r.Seen() != 7 {
		t.Fatalf("Len=%d Seen=%d, want 7/7", r.Len(), r.Seen())
	}
	for i, it := range r.Items() {
		if it.Value != float64(i) {
			t.Fatalf("under-capacity reservoir reordered items: %v", r.Items())
		}
	}
	if r.Weight() != 1 {
		t.Fatalf("Weight = %g, want 1 when c <= N", r.Weight())
	}
}

func TestReservoirCapsAtCapacity(t *testing.T) {
	r := NewReservoir(5, xrand.New(2))
	r.AddAll(mkItems("s", 1000))
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	if r.Seen() != 1000 {
		t.Fatalf("Seen = %d, want 1000", r.Seen())
	}
	if got, want := r.Weight(), 200.0; got != want {
		t.Fatalf("Weight = %g, want %g (c/N)", got, want)
	}
}

func TestReservoirZeroCapacity(t *testing.T) {
	r := NewReservoir(0, xrand.New(3))
	r.AddAll(mkItems("s", 50))
	if r.Len() != 0 {
		t.Fatalf("zero-capacity reservoir held %d items", r.Len())
	}
	if r.Seen() != 50 {
		t.Fatalf("Seen = %d, want 50", r.Seen())
	}
	if r.Weight() != 1 {
		t.Fatalf("Weight = %g (degenerate case should stay 1)", r.Weight())
	}
}

func TestReservoirNegativeCapacityClamped(t *testing.T) {
	r := NewReservoir(-5, xrand.New(3))
	r.Add(stream.Item{Source: "s"})
	if r.Len() != 0 || r.Cap() != 0 {
		t.Fatalf("negative capacity not clamped: len=%d cap=%d", r.Len(), r.Cap())
	}
}

func TestReservoirReset(t *testing.T) {
	r := NewReservoir(4, xrand.New(4))
	r.AddAll(mkItems("s", 100))
	r.Reset()
	if r.Len() != 0 || r.Seen() != 0 {
		t.Fatalf("Reset left len=%d seen=%d", r.Len(), r.Seen())
	}
	r.AddAll(mkItems("s", 3))
	if r.Len() != 3 || r.Weight() != 1 {
		t.Fatalf("reservoir unusable after Reset: len=%d w=%g", r.Len(), r.Weight())
	}
}

// TestReservoirUniformInclusion verifies Algorithm R's defining property:
// every stream position lands in the sample with probability N/c.
func TestReservoirUniformInclusion(t *testing.T) {
	const (
		n      = 100
		capN   = 10
		trials = 20000
	)
	counts := make([]int, n)
	rng := xrand.New(42)
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(capN, rng)
		r.AddAll(mkItems("s", n))
		for _, it := range r.Items() {
			counts[int(it.Value)]++
		}
	}
	want := float64(trials) * capN / n // 2000 per position
	for pos, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.10 {
			t.Errorf("position %d selected %d times, want %0.f ± 10%%", pos, c, want)
		}
	}
}

func TestReservoirSampleSizeProperty(t *testing.T) {
	f := func(seed uint64, capRaw, nRaw uint8) bool {
		capN := int(capRaw) % 32
		n := int(nRaw)
		r := NewReservoir(capN, xrand.New(seed))
		r.AddAll(mkItems("s", n))
		want := n
		if capN < n {
			want = capN
		}
		return r.Len() == want && r.Seen() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualSplitExactDivision(t *testing.T) {
	alloc := allocate(EqualSplit{}, 100, 50, 50, 50, 50)
	for i, n := range alloc {
		if n != 25 {
			t.Fatalf("alloc[%d] = %d, want 25", i, n)
		}
	}
}

func TestEqualSplitRemainderIsDeterministic(t *testing.T) {
	// Sub-streams a, b, c: 10/3 = 3 rem 1 → the first sorted source gets the
	// extra slot.
	alloc := allocate(EqualSplit{}, 10, 5, 5, 5)
	if alloc[0] != 4 || alloc[1] != 3 || alloc[2] != 3 {
		t.Fatalf("alloc = %v, want a:4 b:3 c:3", alloc)
	}
}

func TestEqualSplitMinimumOneSlot(t *testing.T) {
	alloc := allocate(EqualSplit{}, 2, 10, 10, 10, 10, 10)
	for i, n := range alloc {
		if n < 1 {
			t.Fatalf("alloc[%d] = %d; no sub-stream may be neglected (§III-A)", i, n)
		}
	}
}

func TestEqualSplitZeroBudget(t *testing.T) {
	alloc := allocate(EqualSplit{}, 0, 10)
	if alloc[0] != 0 {
		t.Fatalf("zero budget allocated %d", alloc[0])
	}
}

func TestEqualSplitEmptyCounts(t *testing.T) {
	alloc := allocate(EqualSplit{}, 10)
	if len(alloc) != 0 {
		t.Fatalf("empty counts produced %v", alloc)
	}
}

func TestProportionalFollowsCounts(t *testing.T) {
	// Sub-streams big and small, in that order.
	alloc := allocate(Proportional{}, 100, 900, 100)
	if alloc[0] != 90 || alloc[1] < 1 {
		t.Fatalf("alloc = %v, want big:90 small:>=1", alloc)
	}
}

func TestProportionalMinimumOne(t *testing.T) {
	// Sub-streams big and rare, in that order.
	alloc := allocate(Proportional{}, 50, 1000000, 1)
	if alloc[1] < 1 {
		t.Fatalf("rare sub-stream starved: %v", alloc)
	}
}

func TestWHSPaperFigure2Example(t *testing.T) {
	// Fig. 2: sub-stream S1 delivers 4 items into a reservoir of size 3 with
	// W_in = 3 → W_out = 3·(4/3) = 4. S2 delivers 2 items (c <= N) with
	// W_in = 2 → W_out = 2.
	rng := xrand.New(7)
	s := NewWHS(rng)

	b1 := s.SampleInterval(mkPairs(pairSpec{"S1", 3, 4}), 3)
	if len(b1) != 1 {
		t.Fatalf("got %d batches, want 1", len(b1))
	}
	if b1[0].Weight != 4 {
		t.Fatalf("S1 W_out = %g, want 4 (paper Fig. 2)", b1[0].Weight)
	}
	if len(b1[0].Items) != 3 {
		t.Fatalf("S1 sample size = %d, want 3", len(b1[0].Items))
	}

	b2 := s.SampleInterval(mkPairs(pairSpec{"S2", 2, 2}), 3)
	if b2[0].Weight != 2 {
		t.Fatalf("S2 W_out = %g, want 2 (c <= N keeps W_in)", b2[0].Weight)
	}
	if len(b2[0].Items) != 2 {
		t.Fatalf("S2 sample size = %d, want 2", len(b2[0].Items))
	}
}

// TestWHSCountInvariant is the heart of the paper's correctness argument
// (Eq. 8): W^out·c̃ = W^in·c at every node, exactly.
func TestWHSCountInvariant(t *testing.T) {
	f := func(seed uint64, nRaw uint16, budgetRaw, stratums uint8) bool {
		rng := xrand.New(seed)
		k := 1 + int(stratums)%6
		budget := int(budgetRaw)
		var spec []pairSpec
		want := 0.0
		for i := 0; i < k; i++ {
			src := stream.SourceID(string(rune('a' + i)))
			n := 1 + (int(nRaw)+i*37)%200
			wIn := 1 + rng.Float64()*5
			spec = append(spec, pairSpec{src, wIn, n})
			want += wIn * float64(n)
		}
		s := NewWHS(xrand.New(seed + 1))
		batches := s.SampleInterval(mkPairs(spec...), budget)
		if budget <= 0 {
			return len(batches) == 0
		}
		got := estimatedCount(batches)
		return math.Abs(got-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestWHSEverySubstreamRepresented(t *testing.T) {
	s := NewWHS(xrand.New(9))
	batches := s.SampleInterval(mkPairs(pairSpec{"huge", 1, 10000}, pairSpec{"tiny", 1, 1}), 10)
	seen := map[stream.SourceID]bool{}
	for _, b := range batches {
		seen[b.Source] = true
	}
	if !seen["tiny"] {
		t.Fatal("rare sub-stream was neglected — violates the core design goal")
	}
}

func TestWHSDeterministicForSeed(t *testing.T) {
	interval := func() []stream.Batch { return mkPairs(pairSpec{"a", 1, 500}, pairSpec{"b", 1, 300}) }
	a := NewWHS(xrand.New(5)).SampleInterval(interval(), 50)
	b := NewWHS(xrand.New(5)).SampleInterval(interval(), 50)
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || len(a[i].Items) != len(b[i].Items) {
			t.Fatal("same seed produced different samples")
		}
		for j := range a[i].Items {
			if a[i].Items[j].Value != b[i].Items[j].Value {
				t.Fatal("same seed selected different items")
			}
		}
	}
}

func TestWHSEmptyInput(t *testing.T) {
	if got := NewWHS(xrand.New(1)).SampleInterval(nil, 10); got != nil {
		t.Fatalf("SampleInterval(nil) = %v, want nil", got)
	}
}

func TestWHSSampleBatchesKeepsWeightLineages(t *testing.T) {
	// Two pairs for the same sub-stream with different W^in (the Fig. 3
	// split-across-intervals case) must not be merged.
	pairs := []stream.Batch{
		{Source: "s", Weight: 1.5, Items: mkItems("s", 2)},
		{Source: "s", Weight: 3, Items: mkItems("s", 1)},
	}
	s := NewWHS(xrand.New(11))
	out := s.SampleInterval(pairs, 10)
	if len(out) != 2 {
		t.Fatalf("got %d batches, want 2 distinct lineages", len(out))
	}
	want := 1.5*2 + 3*1
	if got := estimatedCount(out); math.Abs(got-want) > 1e-9 {
		t.Fatalf("estimated count = %g, want %g", got, want)
	}
}

func TestCoinFlipFractionOneKeepsEverything(t *testing.T) {
	c := NewCoinFlipFraction(xrand.New(1), 1)
	batches := c.SampleInterval(mkPairs(pairSpec{"s", 1, 100}), 0)
	if got := estimatedCount(batches); got != 100 {
		t.Fatalf("estimated count = %g, want 100", got)
	}
	if len(batches[0].Items) != 100 {
		t.Fatalf("kept %d items, want all 100", len(batches[0].Items))
	}
	if batches[0].Weight != 1 {
		t.Fatalf("weight = %g, want 1 at p=1", batches[0].Weight)
	}
}

func TestCoinFlipZeroFractionDropsEverything(t *testing.T) {
	c := NewCoinFlipFraction(xrand.New(1), 0)
	if got := c.SampleInterval(mkPairs(pairSpec{"s", 1, 10}), 0); got != nil {
		t.Fatalf("p=0 kept %v", got)
	}
}

func TestCoinFlipKeepRateAndWeight(t *testing.T) {
	c := NewCoinFlipFraction(xrand.New(3), 0.25)
	batches := c.SampleInterval(mkPairs(pairSpec{"s", 1, 100000}), 0)
	kept := 0
	for _, b := range batches {
		kept += len(b.Items)
		if b.Weight != 4 { // 1/0.25
			t.Fatalf("weight = %g, want 4", b.Weight)
		}
	}
	if math.Abs(float64(kept)/100000-0.25) > 0.01 {
		t.Fatalf("keep rate = %g, want ~0.25", float64(kept)/100000)
	}
}

func TestCoinFlipBudgetDerivedProbability(t *testing.T) {
	c := NewCoinFlip(xrand.New(4))
	batches := c.SampleInterval(mkPairs(pairSpec{"s", 1, 10000}), 1000) // expect p = 0.1
	kept := 0
	for _, b := range batches {
		kept += len(b.Items)
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("kept %d items, want ~1000", kept)
	}
}

func TestCoinFlipCanLoseRareSubstream(t *testing.T) {
	// The failure mode ApproxIoT exists to fix: at a low fraction, SRS
	// frequently drops a 2-item sub-stream entirely.
	lost := 0
	for trial := 0; trial < 200; trial++ {
		c := NewCoinFlipFraction(xrand.New(uint64(trial)), 0.1)
		found := false
		for _, b := range c.SampleInterval(mkPairs(pairSpec{"big", 1, 1000}, pairSpec{"rare", 1, 2}), 0) {
			if b.Source == "rare" {
				found = true
			}
		}
		if !found {
			lost++
		}
	}
	// P(lose both) = 0.9² = 81%.
	if lost < 100 {
		t.Fatalf("rare sub-stream lost only %d/200 times; expected ~162", lost)
	}
}

func TestCoinFlipUnbiasedInExpectation(t *testing.T) {
	var est, truth float64
	for _, it := range mkItems("s", 1000) {
		truth += it.Value
	}
	const trials = 400
	for tr := 0; tr < trials; tr++ {
		c := NewCoinFlipFraction(xrand.New(uint64(tr)+1000), 0.2)
		for _, b := range c.SampleInterval(mkPairs(pairSpec{"s", 1, 1000}), 0) {
			for _, it := range b.Items {
				est += it.Value * b.Weight
			}
		}
	}
	est /= trials
	if math.Abs(est-truth)/truth > 0.05 {
		t.Fatalf("mean SRS estimate %.1f deviates from truth %.1f", est, truth)
	}
}

func TestPassthroughKeepsEverythingUnweighted(t *testing.T) {
	batches := Passthrough{}.SampleInterval(mkPairs(pairSpec{"a", 2, 10}, pairSpec{"b", 1, 5}), 0)
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	for _, b := range batches {
		switch b.Source {
		case "a":
			if b.Weight != 2 || len(b.Items) != 10 {
				t.Fatalf("a: w=%g n=%d, want 2/10", b.Weight, len(b.Items))
			}
		case "b":
			if b.Weight != 1 || len(b.Items) != 5 {
				t.Fatalf("b: w=%g n=%d, want 1/5", b.Weight, len(b.Items))
			}
		}
	}
}

func TestParallelWHSCountInvariant(t *testing.T) {
	f := func(seed uint64, workersRaw, nRaw uint8) bool {
		workers := 1 + int(workersRaw)%8
		n := 1 + int(nRaw)
		p := NewParallelWHS(workers, seed)
		batches := p.SampleInterval(mkPairs(pairSpec{"a", 2, n}, pairSpec{"b", 1.5, n * 2}), 40)
		want := 2*float64(n) + 1.5*float64(n*2)
		got := estimatedCount(batches)
		return math.Abs(got-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWHSConcurrentMatchesSequential(t *testing.T) {
	interval := func() []stream.Batch { return mkPairs(pairSpec{"a", 1, 1000}, pairSpec{"b", 1, 700}) }
	seq := NewParallelWHS(4, 99).SampleInterval(interval(), 100)
	con := NewParallelWHS(4, 99, WithConcurrency(true)).SampleInterval(interval(), 100)
	if len(seq) != len(con) {
		t.Fatalf("batch counts differ: %d vs %d", len(seq), len(con))
	}
	for i := range seq {
		if seq[i].Source != con[i].Source || seq[i].Weight != con[i].Weight || len(seq[i].Items) != len(con[i].Items) {
			t.Fatal("concurrent execution changed the sample — workers must be order-independent")
		}
	}
}

func TestParallelWHSRespectsPerWorkerCap(t *testing.T) {
	p := NewParallelWHS(4, 1)
	batches := p.SampleInterval(mkPairs(pairSpec{"a", 1, 10000}), 40) // N=40, w=4 → ≤10 each
	for _, b := range batches {
		if len(b.Items) > 10 {
			t.Fatalf("worker reservoir held %d items, cap is N/w = 10", len(b.Items))
		}
	}
}

func TestParallelWHSSingleWorkerInvariant(t *testing.T) {
	batches := NewParallelWHS(1, 7).SampleInterval(mkPairs(pairSpec{"a", 1, 500}), 50)
	if got := estimatedCount(batches); math.Abs(got-500) > 1e-9 {
		t.Fatalf("estimated count = %g, want 500", got)
	}
}

func BenchmarkCoinFlipSample(b *testing.B) {
	pairs := mkPairs(pairSpec{"a", 1, 5000}, pairSpec{"b", 1, 3000}, pairSpec{"c", 1, 2000})
	c := NewCoinFlipFraction(xrand.New(1), 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SampleInterval(pairs, 0)
	}
}

func BenchmarkReservoirAdd(b *testing.B) {
	r := NewReservoir(1000, xrand.New(1))
	it := stream.Item{Source: "s", Value: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(it)
	}
}

func BenchmarkParallelWHS4Workers(b *testing.B) {
	pairs := mkPairs(pairSpec{"a", 1, 10000})
	p := NewParallelWHS(4, 1, WithConcurrency(true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SampleInterval(pairs, 1000)
	}
}
