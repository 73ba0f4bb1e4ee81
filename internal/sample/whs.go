package sample

import (
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// WHSampler implements Algorithm 1, weighted hierarchical sampling — the
// paper's core contribution. For one interval on one node it:
//
//  1. stratifies the input items into sub-streams by source (line 5),
//  2. allocates a reservoir size N_i per sub-stream from the total budget
//     (line 7, the getSampleSize step),
//  3. samples each sub-stream independently (line 10): a uniform N_i-subset,
//     drawn by selection since the interval's items are all at hand, and
//  4. updates the weight: W^out = W^in·(c_i/N_i) when the sub-stream
//     overflowed its reservoir, W^out = W^in otherwise (Eq. 1–2).
//
// The algorithm needs no coordination with other nodes; weights compound
// multiplicatively hop by hop, which is what preserves the Eq. 8 count
// invariant end to end.
type WHSampler struct {
	rng   *xrand.Rand
	alloc Allocator

	strata strata      // per-interval scratch (SampleInterval)
	out    batchBuffer // the headers of the batches SampleInterval returned
}

var _ Sampler = (*WHSampler)(nil)

// WHSOption customizes a WHSampler.
type WHSOption func(*WHSampler)

// WithAllocator overrides the budget-split policy (default EqualSplit).
func WithAllocator(a Allocator) WHSOption {
	return func(s *WHSampler) { s.alloc = a }
}

// NewWHS returns a weighted hierarchical sampler driven by rng.
func NewWHS(rng *xrand.Rand, opts ...WHSOption) *WHSampler {
	s := &WHSampler{rng: rng, alloc: EqualSplit{}}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Reseed rewinds the sampler's generator to its construction seed and takes
// back the batch headers SampleInterval returned.
func (s *WHSampler) Reseed() {
	s.rng.Reseed()
	s.out.reset()
}

// Sample runs WHSamp (Algorithm 1) over one (W^in, items) pair.
func (s *WHSampler) Sample(items []stream.Item, weights stream.WeightMap, budget int) []stream.Batch {
	if len(items) == 0 {
		return nil
	}
	sources, groups := stratify(items)
	sizes := groupSizes(s.alloc, budget, groups)

	batches := make([]stream.Batch, 0, len(sources))
	for i, src := range sources {
		ni := sizes[i]
		if ni <= 0 {
			continue // zero budget: sub-stream contributes nothing
		}
		kept, w := selectInPlace(groups[i], ni, s.rng)
		batches = append(batches, stream.Batch{
			Source: src,
			Weight: weights.Get(src) * w, // Eq. 2
			Items:  kept,
		})
	}
	return batches
}

// SampleBatches applies Algorithm 2's inner loop: each (W^in, items) pair in
// Ψ is sampled independently, sharing the interval budget. This is the entry
// point nodes use when multiple upstream batches for the same sub-stream
// arrive within one interval (the Fig. 3 split-interval case); each pair
// keeps its own weight lineage.
func (s *WHSampler) SampleBatches(pairs []stream.Batch, budget int) []stream.Batch {
	if len(pairs) == 0 {
		return nil
	}
	var out []stream.Batch
	for _, pair := range pairs {
		weights := stream.WeightMap{pair.Source: pair.Weight}
		out = append(out, s.Sample(pair.Items, weights, budget)...)
	}
	return out
}
