package sample

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

func mkPairs(spec ...struct {
	src stream.SourceID
	w   float64
	n   int
}) []stream.Batch {
	var out []stream.Batch
	for _, s := range spec {
		out = append(out, stream.Batch{Source: s.src, Weight: s.w, Items: mkItems(s.src, s.n)})
	}
	return out
}

type pairSpec = struct {
	src stream.SourceID
	w   float64
	n   int
}

func TestWHSIntervalInvariant(t *testing.T) {
	f := func(seed uint64, budgetRaw uint16) bool {
		budget := 1 + int(budgetRaw)%500
		rng := xrand.New(seed)
		var pairs []stream.Batch
		want := 0.0
		k := 1 + rng.Intn(4)
		for i := 0; i < k; i++ {
			src := stream.SourceID(string(rune('a' + rng.Intn(3)))) // collisions on purpose
			n := 1 + rng.Intn(300)
			w := 1 + rng.Float64()*4
			pairs = append(pairs, stream.Batch{Source: src, Weight: w, Items: mkItems(src, n)})
			want += w * float64(n)
		}
		out := NewWHS(xrand.New(seed+1)).SampleInterval(pairs, budget)
		return math.Abs(estimatedCount(out)-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestWHSIntervalRespectsBudgetApproximately(t *testing.T) {
	pairs := mkPairs(
		pairSpec{"a", 1, 10000},
		pairSpec{"b", 1, 10000},
	)
	out := NewWHS(xrand.New(1)).SampleInterval(pairs, 200)
	kept := 0
	for _, b := range out {
		kept += len(b.Items)
	}
	if kept < 190 || kept > 210 {
		t.Fatalf("kept %d items on budget 200", kept)
	}
}

func TestWHSIntervalLineagesStayDistinct(t *testing.T) {
	// Same sub-stream, two lineages (Fig. 3's split-interval case):
	// output batches must keep separate weights.
	pairs := mkPairs(
		pairSpec{"s", 1.5, 60},
		pairSpec{"s", 3.0, 40},
	)
	out := NewWHS(xrand.New(2)).SampleInterval(pairs, 20)
	if len(out) != 2 {
		t.Fatalf("got %d output batches, want 2 lineages", len(out))
	}
	want := 1.5*60 + 3.0*40
	if got := estimatedCount(out); math.Abs(got-want) > 1e-9 {
		t.Fatalf("estimated count = %g, want %g", got, want)
	}
}

func TestWHSIntervalZeroBudget(t *testing.T) {
	pairs := mkPairs(pairSpec{"a", 1, 100})
	if out := NewWHS(xrand.New(3)).SampleInterval(pairs, 0); out != nil {
		t.Fatalf("zero budget produced %d batches", len(out))
	}
}

func TestWHSIntervalSkipsEmptyPairs(t *testing.T) {
	pairs := []stream.Batch{
		{Source: "a", Weight: 2, Items: nil},
		{Source: "b", Weight: 1, Items: mkItems("b", 5)},
	}
	out := NewWHS(xrand.New(4)).SampleInterval(pairs, 10)
	if len(out) != 1 || out[0].Source != "b" {
		t.Fatalf("empty pair not skipped: %v", out)
	}
}

func TestParallelWHSIntervalInvariant(t *testing.T) {
	pairs := mkPairs(
		pairSpec{"a", 2, 500},
		pairSpec{"b", 1, 300},
	)
	out := NewParallelWHS(4, 9).SampleInterval(pairs, 100)
	want := 2.0*500 + 1.0*300
	if got := estimatedCount(out); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("estimated count = %g, want %g", got, want)
	}
}

func TestCoinFlipIntervalBudgetDriven(t *testing.T) {
	pairs := mkPairs(pairSpec{"a", 1, 5000}, pairSpec{"b", 1, 5000})
	out := NewCoinFlip(xrand.New(5)).SampleInterval(pairs, 1000) // p = 0.1
	kept := 0
	for _, b := range out {
		kept += len(b.Items)
		if math.Abs(b.Weight-10) > 1e-9 {
			t.Fatalf("weight = %g, want 10", b.Weight)
		}
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("kept %d, want ~1000", kept)
	}
}

func TestCoinFlipIntervalScalesLineageWeight(t *testing.T) {
	pairs := mkPairs(pairSpec{"a", 4, 10000})
	out := NewCoinFlipFraction(xrand.New(6), 0.5).SampleInterval(pairs, 0)
	if len(out) != 1 {
		t.Fatalf("got %d batches", len(out))
	}
	if out[0].Weight != 8 { // W_in / p = 4 / 0.5
		t.Fatalf("weight = %g, want 8", out[0].Weight)
	}
}

func TestCoinFlipIntervalEmpty(t *testing.T) {
	if out := NewCoinFlip(xrand.New(7)).SampleInterval(nil, 100); out != nil {
		t.Fatalf("empty Ψ produced %v", out)
	}
}

func TestPassthroughIntervalIdentity(t *testing.T) {
	pairs := mkPairs(pairSpec{"a", 2.5, 7}, pairSpec{"b", 1, 3})
	var native Passthrough
	out := native.SampleInterval(pairs, 0)
	if len(out) != 2 {
		t.Fatalf("got %d batches, want 2", len(out))
	}
	if out[0].Weight != 2.5 || len(out[0].Items) != 7 {
		t.Fatalf("native execution altered the stream: %+v", out[0])
	}
}

func TestPassthroughIntervalDropsEmpty(t *testing.T) {
	pairs := []stream.Batch{{Source: "a", Weight: 1}}
	var native Passthrough
	if out := native.SampleInterval(pairs, 0); len(out) != 0 {
		t.Fatalf("empty pair forwarded: %v", out)
	}
}

// referenceInterval is WHSampler.SampleInterval as it was before it sampled
// in place or grouped by slice: pairs grouped through a map, sizes from the
// map-keyed allocators (refAllocate), every lineage sampled into fresh
// storage by refSelect. The sampler must reproduce it draw for draw.
func referenceInterval(rng *xrand.Rand, alloc Allocator, pairs []stream.Batch, budget int) []stream.Batch {
	bySource, sources, counts := groupPairs(pairs)
	if len(sources) == 0 || budget <= 0 {
		return nil
	}
	var sizes map[stream.SourceID]int
	if _, ok := alloc.(ValueAware); ok {
		sizes = refNeymanByVariance(budget, counts, stddevBySource(bySource, sources))
	} else {
		sizes = refAllocate(alloc, budget, counts)
	}
	var out []stream.Batch
	for _, src := range sources {
		if sizes[src] <= 0 {
			continue
		}
		for _, pair := range bySource[src] {
			kept, w := refSelect(pair.Items, lineageShare(sizes[src], len(pair.Items), counts[src]), rng)
			out = append(out, stream.Batch{Source: src, Weight: pair.Weight * w, Items: kept})
		}
	}
	return out
}

// refSelect is the selection sampler's oracle: a partial Fisher–Yates
// shuffle of an index array, not of the items, taking the same draws in the
// same order — forward over the first n positions when n <= N−n, backward
// over the last N−n otherwise — and copying the kept items out into fresh
// storage, with the Eq. 1 weight N/n (everything at weight 1 when it fits).
func refSelect(items []stream.Item, n int, rng *xrand.Rand) ([]stream.Item, float64) {
	size := len(items)
	if size <= n {
		return slices.Clone(items), 1
	}
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	if n <= size-n {
		for i := 0; i < n; i++ {
			j := i + int(rng.Int63n(int64(size-i)))
			idx[i], idx[j] = idx[j], idx[i]
		}
	} else {
		for i := size - 1; i >= n; i-- {
			j := int(rng.Int63n(int64(i + 1)))
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
	kept := make([]stream.Item, n)
	for i := range kept {
		kept[i] = items[idx[i]]
	}
	return kept, float64(size) / float64(n)
}

func clonePairs(pairs []stream.Batch) []stream.Batch {
	out := make([]stream.Batch, len(pairs))
	for i, p := range pairs {
		out[i] = p.Clone()
	}
	return out
}

func sameBatches(a, b []stream.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Weight != b[i].Weight || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}

// In-place selection against its oracle on the shares that matter: one
// slot, fewer slots than items (both branches), exactly as many, and more.
func TestSelectInPlaceEqualsReference(t *testing.T) {
	for _, n := range []int{1, 2, 17, 256} {
		for _, share := range []int{1, n / 4, n / 2, n - 1, n, n + 1, 4 * n} {
			if share < 1 {
				continue
			}
			seed := uint64(31*n + share)
			items := mkItems("a", n)
			refRng := xrand.New(seed)
			want, wantW := refSelect(items, share, refRng)
			rng := xrand.New(seed)
			kept, w := selectInPlace(items, share, rng)
			if w != wantW || !sameBatches([]stream.Batch{{Items: kept}}, []stream.Batch{{Items: want}}) {
				t.Fatalf("n=%d share=%d: in place kept %d items at weight %g, reference %d at %g (or different items)",
					n, share, len(kept), w, len(want), wantW)
			}
			if share < n && &kept[0] != &items[0] {
				t.Fatalf("n=%d share=%d: sample does not alias the lineage's own storage", n, share)
			}
			// Same draws consumed: the generators are in the same state.
			if rng.Uint64() != refRng.Uint64() {
				t.Fatalf("n=%d share=%d: in-place selection consumed different RNG draws", n, share)
			}
		}
	}
}

// Property: for random intervals — several sub-streams, several weight
// lineages per sub-stream, lineage lengths from 1 up, budgets from starved
// (every share floors at 1) through exact to oversized (every share covers
// its lineage) — in-place SampleInterval returns exactly what the
// refSelect-built reference returns from the same seed, for every allocator,
// and two intervals in a row stay in step (the generators agree afterwards).
func TestWHSIntervalInPlaceEqualsSelectionReference(t *testing.T) {
	allocs := map[string]Allocator{"equal": EqualSplit{}, "waterfill": WaterFill{}, "neyman": Neyman{}}
	for name, alloc := range allocs {
		f := func(seed uint64, budgetRaw uint16) bool {
			gen := xrand.New(seed)
			mkInterval := func() ([]stream.Batch, int) {
				var pairs []stream.Batch
				total := 0
				for i, k := 0, 1+gen.Intn(6); i < k; i++ {
					src := stream.SourceID(string(rune('a' + gen.Intn(3)))) // shared sub-streams on purpose
					n := 1 + gen.Intn(200)
					if gen.Intn(4) == 0 {
						n = 1 + gen.Intn(3) // tiny lineages: share >= len
					}
					pairs = append(pairs, stream.Batch{Source: src, Weight: 1 + float64(gen.Intn(5))/2, Items: mkItems(src, n)})
					total += n
				}
				return pairs, total
			}
			inPlace := NewWHS(xrand.New(seed+1), WithAllocator(alloc))
			refRng := xrand.New(seed + 1)
			for round := 0; round < 2; round++ {
				pairs, total := mkInterval()
				var budget int
				switch budgetRaw % 4 {
				case 0:
					budget = 1 // starved
				case 1:
					budget = total // exactly everything
				case 2:
					budget = 3 * total // oversized
				default:
					budget = 1 + int(budgetRaw)%total
				}
				want := referenceInterval(refRng, alloc, clonePairs(pairs), budget)
				if got := inPlace.SampleInterval(pairs, budget); !sameBatches(got, want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Reseed rewinds every sampler to its construction seed: an interval sampled
// after any number of earlier intervals and a Reseed equals the interval a
// freshly built sampler returns — which is what lets an event-time node keep
// one sampler across windows instead of building one per window.
func TestReseedEqualsAFreshSampler(t *testing.T) {
	samplers := map[string]func() Sampler{
		"whs":         func() Sampler { return NewWHS(xrand.New(5), WithAllocator(WaterFill{})) },
		"parallel":    func() Sampler { return NewParallelWHS(3, 5) },
		"coinflip":    func() Sampler { return NewCoinFlip(xrand.New(5)) },
		"passthrough": func() Sampler { return Passthrough{} },
	}
	interval := func() []stream.Batch {
		return mkPairs(pairSpec{"a", 1, 400}, pairSpec{"b", 2, 90}, pairSpec{"a", 1.5, 60})
	}
	for name, mk := range samplers {
		want := mk().SampleInterval(interval(), 120)
		s := mk()
		s.Reseed() // nothing drawn yet
		for round := 0; round < 3; round++ {
			if got := s.SampleInterval(interval(), 120); !sameBatches(got, want) {
				t.Fatalf("%s: interval %d after Reseed differs from a fresh sampler's", name, round)
			}
			s.SampleInterval(interval(), 37) // leave the generator somewhere else
			s.Reseed()
		}
	}
}

// A sampler nobody reseeds — the single-node Estimator's, the simulator's
// streaming nodes' — keeps only its latest result's headers: each interval's
// go in a fresh buffer of that interval's size, every earlier result stays
// intact for its caller, and none of them stays reachable from the sampler.
// Reseeded between intervals, the sampler reuses one buffer.
func TestSampleIntervalUnreseededKeepsOnlyItsLatestResult(t *testing.T) {
	s := NewWHS(xrand.New(3), WithAllocator(WaterFill{}))
	type kept struct{ got, want []stream.Batch }
	var results []kept
	for round := 0; round < 200; round++ {
		var spec []pairSpec
		for j := 0; j < 1+round%17; j++ {
			spec = append(spec, pairSpec{stream.SourceID(fmt.Sprintf("s%02d", j)), 1, 5 + round%9})
		}
		pairs := mkPairs(spec...)
		out := s.SampleInterval(pairs, 3*len(pairs))
		if cap(s.out.buf) > len(pairs) {
			t.Fatalf("round %d: header buffer holds %d, more than the interval's %d pairs", round, cap(s.out.buf), len(pairs))
		}
		results = append(results, kept{out, clonePairs(out)})
	}
	for i, r := range results {
		if !sameBatches(r.got, r.want) {
			t.Fatalf("result %d changed under later intervals", i)
		}
	}

	pairs := mkPairs(pairSpec{"a", 1, 40}, pairSpec{"b", 1, 40})
	s.Reseed()
	buf := &s.SampleInterval(pairs, 20)[0]
	s.Reseed()
	if again := &s.SampleInterval(pairs, 20)[0]; again != buf {
		t.Fatal("a reseeded sampler did not reuse its header buffer")
	}
}

// BenchmarkSampleInterval256 is one window node's close over 256 Zipf-sized
// strata, one lineage each, at a tenth of the input: group Ψ, allocate by
// water-filling, sample every lineage in place. Between closes the batch
// headers are handed back, as the node's reopen (Reseed) does; the generator
// is not rewound, so the draws differ close to close but their number stays
// put. CI gates its allocations at zero.
func BenchmarkSampleInterval256(b *testing.B) {
	const strata = 256
	var pairs []stream.Batch
	total := 0
	for s := 0; s < strata; s++ {
		src := stream.SourceID(fmt.Sprintf("z%03d", s))
		n := 1 + 512/(s+1)
		pairs = append(pairs, stream.Batch{Source: src, Weight: 1, Items: mkItems(src, n)})
		total += n
	}
	// A node hands Ψ over in arrival order, not sorted by sub-stream.
	gen := xrand.New(9)
	for i := len(pairs) - 1; i > 0; i-- {
		j := gen.Intn(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	s := NewWHS(xrand.New(1), WithAllocator(WaterFill{}))
	budget := total / 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.SampleInterval(pairs, budget); len(out) != strata {
			b.Fatalf("%d batches, want %d", len(out), strata)
		}
		s.out.reset()
	}
}
