package sample

import (
	"sort"

	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
)

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
	sources := make([]stream.SourceID, 0, len(bySource))
	for src := range bySource {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	return bySource, sources, counts
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

// lineageShare splits a sub-stream's reservoir budget n across its lineages
// proportionally to their item counts, flooring at one slot each, so the
// sub-stream-level fairness of the allocator carries down to lineages.
func lineageShare(n, lineageCount, totalCount int) int {
	share := int(float64(n)*float64(lineageCount)/float64(totalCount) + 0.5)
	if share < 1 {
		share = 1
	}
	return share
}

// SampleInterval implements Algorithm 2's per-interval loop for weighted
// hierarchical sampling: the budget is allocated across sub-streams
// (fairly, per the Allocator), each sub-stream's share is divided over its
// weight lineages, and every lineage is reservoir-sampled with its weight
// updated per Eq. 1–2.
//
// Every lineage is sampled in place (reservoirInPlace): an output batch's
// Items is a prefix of the input pair's own slice, so the interval costs no
// item storage at all.
func (s *WHSampler) SampleInterval(pairs []stream.Batch, budget int) []stream.Batch {
	bySource, sources, counts := groupPairs(pairs)
	if len(sources) == 0 || budget <= 0 {
		return nil
	}
	var sizes map[stream.SourceID]int
	if va, ok := s.alloc.(ValueAware); ok {
		sizes = va.AllocateByVariance(budget, counts, stddevBySource(bySource, sources))
	} else {
		sizes = s.alloc.Allocate(budget, counts)
	}
	var out []stream.Batch
	for _, src := range sources {
		ni := sizes[src]
		if ni <= 0 {
			continue
		}
		total := counts[src]
		for _, pair := range bySource[src] {
			kept, w := reservoirInPlace(pair.Items, lineageShare(ni, len(pair.Items), total), s.rng)
			out = append(out, stream.Batch{
				Source: src,
				Weight: pair.Weight * w,
				Items:  kept,
			})
		}
	}
	return out
}

// SampleInterval implements the interval loop for the §III-E parallel
// sampler: identical allocation to WHSampler, with each lineage's share
// further split across the w workers.
func (p *ParallelWHS) SampleInterval(pairs []stream.Batch, budget int) []stream.Batch {
	bySource, sources, counts := groupPairs(pairs)
	if len(sources) == 0 || budget <= 0 {
		return nil
	}
	sizes := p.alloc.Allocate(budget, counts)
	var out []stream.Batch
	for _, src := range sources {
		ni := sizes[src]
		if ni <= 0 {
			continue
		}
		total := counts[src]
		for _, pair := range bySource[src] {
			share := lineageShare(ni, len(pair.Items), total)
			weights := stream.WeightMap{src: pair.Weight}
			out = append(out, p.Sample(pair.Items, weights, share)...)
		}
	}
	return out
}

// SampleInterval implements the interval loop for the SRS baseline: one coin
// flip per item at probability budget/|interval| (or the fixed fraction),
// with weights scaled by 1/p per lineage.
func (c *CoinFlip) SampleInterval(pairs []stream.Batch, budget int) []stream.Batch {
	total := 0
	for _, p := range pairs {
		total += len(p.Items)
	}
	if total == 0 {
		return nil
	}
	p := c.fraction
	if p == 0 {
		p = float64(budget) / float64(total)
		if p > 1 {
			p = 1
		}
	}
	if p <= 0 {
		return nil
	}
	var out []stream.Batch
	for _, pair := range pairs {
		var kept []stream.Item
		for _, it := range pair.Items {
			if c.rng.Bernoulli(p) {
				kept = append(kept, it)
			}
		}
		if len(kept) == 0 {
			continue
		}
		out = append(out, stream.Batch{
			Source: pair.Source,
			Weight: pair.Weight / p,
			Items:  kept,
		})
	}
	return out
}

// SampleInterval implements the interval loop for the native baseline:
// every pair is forwarded untouched.
func (Passthrough) SampleInterval(pairs []stream.Batch, _ int) []stream.Batch {
	out := make([]stream.Batch, 0, len(pairs))
	for _, p := range pairs {
		if len(p.Items) == 0 {
			continue
		}
		out = append(out, p)
	}
	return out
}
