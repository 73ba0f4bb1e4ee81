package sample

import (
	"testing"
	"testing/quick"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// allocate runs a over counts (one per sub-stream, in SourceID order) and
// returns the sizes.
func allocate(a Allocator, total int, counts ...int) []int {
	sizes := make([]int, len(counts))
	a.Allocate(total, counts, sizes)
	return sizes
}

func sumAlloc(sizes []int) int {
	total := 0
	for _, n := range sizes {
		total += n
	}
	return total
}

func TestWaterFillExactBudgetWhenOversubscribed(t *testing.T) {
	alloc := allocate(WaterFill{}, 600, 1000, 1000, 1000)
	if got := sumAlloc(alloc); got != 600 {
		t.Fatalf("allocated %d, want exactly 600", got)
	}
	for i, n := range alloc {
		if n < 199 || n > 201 {
			t.Fatalf("alloc[%d] = %d, want ~200 (fair)", i, n)
		}
	}
}

func TestWaterFillRedistributesUnusedShare(t *testing.T) {
	// Setting1-style imbalance: tiny sub-streams can't use their share;
	// the surplus must flow to the big ones. Sub-streams A, B, C, D.
	budget := 52875 // 60% of the total 88125
	alloc := allocate(WaterFill{}, budget, 50000, 25000, 12500, 625)
	if got := sumAlloc(alloc); got != budget {
		t.Fatalf("allocated %d, want exactly %d", got, budget)
	}
	if alloc[3] != 625 {
		t.Fatalf("alloc[D] = %d, want full census 625", alloc[3])
	}
	if alloc[2] != 12500 {
		t.Fatalf("alloc[C] = %d, want full census 12500", alloc[2])
	}
	// A and B split the rest roughly evenly (both above the water level).
	if alloc[0] < 19000 || alloc[1] < 19000 {
		t.Fatalf("big sub-streams starved: A=%d B=%d", alloc[0], alloc[1])
	}
}

func TestWaterFillBudgetExceedsInput(t *testing.T) {
	alloc := allocate(WaterFill{}, 1000, 10, 20)
	if alloc[0] < 10 || alloc[1] < 20 {
		t.Fatalf("census denied under surplus budget: %v", alloc)
	}
}

func TestWaterFillZeroBudgetAndEmpty(t *testing.T) {
	alloc := allocate(WaterFill{}, 0, 5)
	if alloc[0] != 0 {
		t.Fatalf("zero budget allocated %d", alloc[0])
	}
	empty := allocate(WaterFill{}, 10)
	if len(empty) != 0 {
		t.Fatalf("empty counts produced %v", empty)
	}
}

func TestWaterFillNeverNeglects(t *testing.T) {
	f := func(seed uint64, budgetRaw uint16) bool {
		rng := xrand.New(seed)
		counts := make([]int, 1+rng.Intn(8))
		for i := range counts {
			counts[i] = 1 + rng.Intn(10000)
		}
		budget := 1 + int(budgetRaw)
		for _, n := range allocate(WaterFill{}, budget, counts...) {
			if n < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// neyman runs Neyman's variance-aware allocation over parallel counts and
// standard deviations.
func neyman(total int, counts []int, stddev []float64) []int {
	sizes := make([]int, len(counts))
	Neyman{}.AllocateByVariance(total, counts, stddev, sizes)
	return sizes
}

func TestNeymanFavorsVolatileStrata(t *testing.T) {
	// Sub-streams calm and wild, in that order.
	alloc := neyman(500, []int{1000, 1000}, []float64{1, 99})
	if alloc[1] <= alloc[0] {
		t.Fatalf("Neyman gave wild=%d calm=%d, want wild ≫ calm", alloc[1], alloc[0])
	}
	if alloc[0] < 1 {
		t.Fatal("calm stratum neglected")
	}
}

func TestNeymanCapsAtCensus(t *testing.T) {
	// Sub-streams big and tiny, in that order.
	alloc := neyman(5000, []int{10000, 10}, []float64{1, 1000})
	if alloc[1] > 10 {
		t.Fatalf("allocated %d slots to a 10-item stratum", alloc[1])
	}
}

func TestNeymanZeroVarianceFallsBack(t *testing.T) {
	alloc := neyman(50, []int{100, 100}, []float64{0, 0})
	if sumAlloc(alloc) == 0 {
		t.Fatal("zero-variance strata got nothing; want water-fill fallback")
	}
}

func TestNeymanPlainAllocateDelegates(t *testing.T) {
	got := allocate(Neyman{}, 50, 100, 100)
	want := allocate(WaterFill{}, 50, 100, 100)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Allocate = %v, want water-fill %v", got, want)
		}
	}
}

func TestWHSWithNeymanAllocator(t *testing.T) {
	// A calm stratum (constant values) and a wild one: Neyman should put
	// nearly all budget on the wild one while keeping both estimable.
	rng := xrand.New(4)
	var pairs []stream.Batch
	calm := make([]stream.Item, 2000)
	wild := make([]stream.Item, 2000)
	for i := range calm {
		calm[i] = stream.Item{Source: "calm", Value: 100}
		wild[i] = stream.Item{Source: "wild", Value: rng.Normal(100, 80)}
	}
	pairs = append(pairs, stream.Batch{Source: "calm", Weight: 1, Items: calm})
	pairs = append(pairs, stream.Batch{Source: "wild", Weight: 1, Items: wild})

	s := NewWHS(xrand.New(5), WithAllocator(Neyman{}))
	out := s.SampleInterval(pairs, 400)
	var nCalm, nWild int
	for _, b := range out {
		switch b.Source {
		case "calm":
			nCalm += len(b.Items)
		case "wild":
			nWild += len(b.Items)
		}
	}
	if nWild <= nCalm {
		t.Fatalf("Neyman WHS kept calm=%d wild=%d, want wild ≫ calm", nCalm, nWild)
	}
	// Invariant must still hold.
	want := 4000.0
	if got := estimatedCount(out); got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("estimated count = %g, want %g", got, want)
	}
}
