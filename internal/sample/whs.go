package sample

import "github.com/approxiot/approxiot/internal/xrand"

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
