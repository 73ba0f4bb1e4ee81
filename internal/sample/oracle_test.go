package sample

import (
	"fmt"
	"sort"
	"testing"

	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// This file keeps the map-keyed close path the samplers used before they
// grouped Ψ by slice — groupPairs and the four allocators over
// map[SourceID]int — as the oracle the slice forms are held to.

// groupPairs clusters the interval's pairs by sub-stream, preserving their
// arrival order within each sub-stream, and returns sorted sources plus the
// per-sub-stream item counts for the allocator.
func groupPairs(pairs []stream.Batch) (map[stream.SourceID][]stream.Batch, []stream.SourceID, map[stream.SourceID]int) {
	bySource := make(map[stream.SourceID][]stream.Batch)
	counts := make(map[stream.SourceID]int)
	for _, p := range pairs {
		if len(p.Items) == 0 {
			continue
		}
		bySource[p.Source] = append(bySource[p.Source], p)
		counts[p.Source] += len(p.Items)
	}
	return bySource, sortedSources(counts), counts
}

// stddevBySource computes each sub-stream's sample standard deviation over
// the interval's item values, for variance-aware allocators.
func stddevBySource(bySource map[stream.SourceID][]stream.Batch, sources []stream.SourceID) map[stream.SourceID]float64 {
	out := make(map[stream.SourceID]float64, len(sources))
	for _, src := range sources {
		var w stats.Welford
		for _, pair := range bySource[src] {
			for _, it := range pair.Items {
				w.Add(it.Value)
			}
		}
		out[src] = w.StdDev()
	}
	return out
}

// sortedSources returns map keys in sorted order for deterministic iteration.
func sortedSources(counts map[stream.SourceID]int) []stream.SourceID {
	sources := make([]stream.SourceID, 0, len(counts))
	for src := range counts {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	return sources
}

// refAllocate is the map-keyed form of alloc's Allocate.
func refAllocate(alloc Allocator, total int, counts map[stream.SourceID]int) map[stream.SourceID]int {
	switch alloc.(type) {
	case EqualSplit:
		return refEqualSplit(total, counts)
	case WaterFill, Neyman:
		return refWaterFill(total, counts)
	case Proportional:
		return refProportional(total, counts)
	}
	panic(fmt.Sprintf("no reference for %T", alloc))
}

func refEqualSplit(total int, counts map[stream.SourceID]int) map[stream.SourceID]int {
	alloc := make(map[stream.SourceID]int, len(counts))
	k := len(counts)
	if k == 0 {
		return alloc
	}
	if total <= 0 {
		for src := range counts {
			alloc[src] = 0
		}
		return alloc
	}
	base, rem := total/k, total%k
	for i, src := range sortedSources(counts) {
		n := base
		if i < rem {
			n++
		}
		if n < 1 {
			n = 1
		}
		alloc[src] = n
	}
	return alloc
}

func refWaterFill(total int, counts map[stream.SourceID]int) map[stream.SourceID]int {
	alloc := make(map[stream.SourceID]int, len(counts))
	if len(counts) == 0 {
		return alloc
	}
	if total <= 0 {
		for src := range counts {
			alloc[src] = 0
		}
		return alloc
	}
	sources := sortedSources(counts)
	sort.SliceStable(sources, func(i, j int) bool { return counts[sources[i]] < counts[sources[j]] })
	remaining := total
	for i, src := range sources {
		left := len(sources) - i
		share := remaining / left
		if rem := remaining % left; rem > 0 {
			share++
		}
		n := counts[src]
		if n > share {
			n = share
		}
		if n < 1 {
			n = 1
		}
		alloc[src] = n
		remaining -= n
		if remaining < 0 {
			remaining = 0
		}
	}
	return alloc
}

// refNeymanByVariance is Neyman's map-keyed AllocateByVariance. The map form
// summed the denominator in map order, so its last bit varied from run to
// run; the oracle sums in SourceID order, as the slice form does.
func refNeymanByVariance(total int, counts map[stream.SourceID]int, stddev map[stream.SourceID]float64) map[stream.SourceID]int {
	alloc := make(map[stream.SourceID]int, len(counts))
	if len(counts) == 0 {
		return alloc
	}
	if total <= 0 {
		for src := range counts {
			alloc[src] = 0
		}
		return alloc
	}
	var denom float64
	for _, src := range sortedSources(counts) {
		denom += float64(counts[src]) * stddev[src]
	}
	if denom == 0 {
		return refWaterFill(total, counts)
	}
	remaining := total
	for _, src := range sortedSources(counts) {
		n := int(float64(total)*float64(counts[src])*stddev[src]/denom + 0.5)
		if n < 1 {
			n = 1
		}
		if n > counts[src] {
			n = counts[src]
		}
		if n > remaining {
			n = remaining
		}
		if n < 1 {
			n = 1
		}
		alloc[src] = n
		remaining -= n
		if remaining < 0 {
			remaining = 0
		}
	}
	return alloc
}

func refProportional(total int, counts map[stream.SourceID]int) map[stream.SourceID]int {
	alloc := make(map[stream.SourceID]int, len(counts))
	if len(counts) == 0 {
		return alloc
	}
	if total <= 0 {
		for src := range counts {
			alloc[src] = 0
		}
		return alloc
	}
	var sum int
	for _, c := range counts {
		sum += c
	}
	if sum == 0 {
		for src := range counts {
			alloc[src] = 1
		}
		return alloc
	}
	remaining := total
	for _, src := range sortedSources(counts) {
		n := int(float64(total)*float64(counts[src])/float64(sum) + 0.5)
		if n < 1 {
			n = 1
		}
		if n > remaining {
			n = remaining
		}
		if n < 1 {
			n = 1
		}
		alloc[src] = n
		remaining -= n
	}
	return alloc
}

var oracleAllocators = map[string]Allocator{
	"equal": EqualSplit{}, "waterfill": WaterFill{}, "neyman": Neyman{}, "proportional": Proportional{},
}

// oracleInterval draws one seeded Ψ set: 1–300 strata, up to four weight
// lineages per stratum (a few of them empty, a few a single item), in
// shuffled arrival order or — a quarter of the time — already sorted, as a
// node hands its Ψ over; the total item count comes back too.
func oracleInterval(gen *xrand.Rand) ([]stream.Batch, int) {
	var pairs []stream.Batch
	total := 0
	strata := 1 + gen.Intn(300)
	for s := 0; s < strata; s++ {
		src := stream.SourceID(fmt.Sprintf("z%03d", gen.Intn(1000)))
		for l, lineages := 0, 1+gen.Intn(4); l < lineages; l++ {
			n := 1 + gen.Intn(40)
			switch gen.Intn(8) {
			case 0:
				n = 0
			case 1:
				n = 1
			}
			items := mkItems(src, n)
			for i := range items {
				items[i].Value = gen.Normal(float64(s), 1+float64(s%7))
			}
			pairs = append(pairs, stream.Batch{Source: src, Weight: 1 + float64(gen.Intn(6))/4, Items: items})
			total += n
		}
	}
	if gen.Intn(4) == 0 {
		sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Source < pairs[j].Source })
	} else {
		for i := len(pairs) - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			pairs[i], pairs[j] = pairs[j], pairs[i]
		}
	}
	return pairs, total
}

// TestSampleIntervalMatchesMapReference holds the slice-grouped close path to
// the map-keyed one on 600 seeded Ψ sets per allocator (300 seeds, two
// intervals each; the ValueAware path through Neyman), with budgets from
// starved to oversized and the generators staying in step from one interval
// to the next: the same sources in the same order, bit-identical weights and
// the same items.
func TestSampleIntervalMatchesMapReference(t *testing.T) {
	const seeds = 300
	for name, alloc := range oracleAllocators {
		for seed := uint64(0); seed < seeds; seed++ {
			gen := xrand.New(seed)
			got := NewWHS(xrand.New(seed+7), WithAllocator(alloc))
			refRng := xrand.New(seed + 7)
			for round := 0; round < 2; round++ {
				pairs, total := oracleInterval(gen)
				budget := 1 + gen.Intn(2*total+2)
				switch gen.Intn(4) {
				case 0:
					budget = 1 + gen.Intn(len(pairs)) // starved: shares floor at one
				case 1:
					budget = 0
				}
				want := referenceInterval(refRng, alloc, clonePairs(pairs), budget)
				if out := got.SampleInterval(pairs, budget); !sameBatches(out, want) {
					t.Fatalf("%s seed %d round %d (budget %d, %d pairs): slice close differs from the map reference",
						name, seed, round, budget, len(pairs))
				}
			}
		}
	}
}

// TestAllocatorsMatchMapReference holds every allocator's slice form to its
// map-keyed form on seeded counts — ties, zeros and budgets on both sides of
// the input included.
func TestAllocatorsMatchMapReference(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		gen := xrand.New(seed)
		k := gen.Intn(40)
		byName := make(map[stream.SourceID]int, k)
		for len(byName) < k {
			c := gen.Intn(50)
			if gen.Intn(3) == 0 {
				c = 5 // ties
			}
			byName[stream.SourceID(fmt.Sprintf("s%02d", gen.Intn(100)))] = c
		}
		sources := sortedSources(byName)
		counts := make([]int, len(sources))
		stddev := make([]float64, len(sources))
		sd := make(map[stream.SourceID]float64, len(sources))
		sum := 0
		for i, src := range sources {
			counts[i] = byName[src]
			sum += counts[i]
			stddev[i] = float64(gen.Intn(4))
			sd[src] = stddev[i]
		}
		total := gen.Intn(2*sum+3) - 1
		check := func(name string, sizes []int, want map[stream.SourceID]int) {
			for i, src := range sources {
				if sizes[i] != want[src] {
					t.Fatalf("seed %d %s: total %d counts %v: sizes %v, reference %v", seed, name, total, counts, sizes, want)
				}
			}
		}
		for name, alloc := range oracleAllocators {
			check(name, allocate(alloc, total, counts...), refAllocate(alloc, total, byName))
		}
		check("neyman-variance", neyman(total, counts, stddev), refNeymanByVariance(total, byName, sd))
	}
}
