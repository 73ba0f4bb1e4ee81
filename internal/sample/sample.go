// Package sample implements ApproxIoT's sampling algorithms and the
// baselines the paper evaluates against:
//
//   - Reservoir: Vitter's Algorithm R (§II-B2), for streams of unknown
//     length. The samplers below see each interval whole, so they draw the
//     same uniform subsets by selection (selectInPlace) instead.
//   - WHSampler: the paper's core contribution, weighted hierarchical
//     stratified reservoir sampling (Algorithm 1). Runs independently on
//     every node of the edge tree with no cross-node coordination.
//   - ParallelWHS: the §III-E distributed-execution extension (w workers per
//     sub-stream, each with a reservoir of at most N_i/w).
//   - CoinFlip: the simple-random-sampling baseline [19].
//   - Passthrough: the native (no sampling) baseline.
//
// All samplers implement Sampler, so an edge node is configured with a
// strategy the same way the prototype swapped Kafka processors.
package sample

import (
	"cmp"
	"slices"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Sampler is the contract edge nodes drive once per time interval
// (Algorithm 2, lines 5–19): pairs is the Ψ store — the (W^in, items) pairs
// received in the interval, each pair one weight lineage of one sub-stream —
// and budget is the interval's total sample size from the node's cost
// function. The result is the interval's outgoing (W^out, sample) batches.
//
// SampleInterval consumes pairs: an output batch's Items may alias an input
// pair's Items, and the input item slices may be reordered or overwritten
// (WHSampler samples each lineage in place, Passthrough forwards the pairs
// themselves). A caller that needs its items intact afterwards passes a
// copy; core.Node hands over the Ψ storage it owns and treats the outputs
// as views of it until the interval's Θ is dead.
//
// Implementations must preserve the Eq. 8 invariant per pair:
// Σ |out.Items|·out.Weight over a pair's outputs = in.Weight·|in.Items|.
//
// Reseed rewinds the sampler's random state, in place, to what its
// constructor left: the intervals that follow draw exactly what a freshly
// built sampler with the same seed would. Event-time nodes keep one sampler
// per retired window and rewind it for the window that opens next, instead
// of building (and seeding) a new one per window. Reseed also takes back the
// batches earlier intervals returned — their headers may be reused — so a
// caller reseeds only once those are dead; until then every result stays
// intact, however many intervals follow.
type Sampler interface {
	SampleInterval(pairs []stream.Batch, budget int) []stream.Batch
	Reseed()
}

// stratify groups a copy of items by source, preserving arrival order within
// each group, and returns the sources in sorted order with their groups so
// all downstream iteration is deterministic. Each group is capped at its own
// length: appending to one never runs into the next.
func stratify(items []stream.Item) ([]stream.SourceID, [][]stream.Item) {
	sorted := slices.Clone(items)
	slices.SortStableFunc(sorted, func(a, b stream.Item) int { return cmp.Compare(a.Source, b.Source) })
	var sources []stream.SourceID
	var groups [][]stream.Item
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Source == sorted[lo].Source {
			hi++
		}
		sources = append(sources, sorted[lo].Source)
		groups = append(groups, sorted[lo:hi:hi])
		lo = hi
	}
	return sources, groups
}

// groupSizes allocates budget across stratify's groups with alloc.
func groupSizes(alloc Allocator, budget int, groups [][]stream.Item) []int {
	counts := make([]int, len(groups))
	for i, g := range groups {
		counts[i] = len(g)
	}
	sizes := make([]int, len(groups))
	alloc.Allocate(budget, counts, sizes)
	return sizes
}

// Passthrough implements the paper's native-execution baseline: every item is
// forwarded with its input weight unchanged.
type Passthrough struct{}

var _ Sampler = Passthrough{}

// Reseed is a no-op: forwarding draws nothing.
func (Passthrough) Reseed() {}

// Sample forwards all items grouped per sub-stream; budget is ignored.
func (Passthrough) Sample(items []stream.Item, weights stream.WeightMap, _ int) []stream.Batch {
	sources, groups := stratify(items)
	batches := make([]stream.Batch, 0, len(sources))
	for i, src := range sources {
		batches = append(batches, stream.Batch{
			Source: src,
			Weight: weights.Get(src),
			Items:  groups[i],
		})
	}
	return batches
}

// CoinFlip implements the simple random sampling baseline used throughout
// the paper's evaluation ("SRS"): every item independently survives a coin
// flip [19]. Kept items carry weight W^in/p so the root's Horvitz–Thompson
// estimate is unbiased; the variance, however, is unprotected against skewed
// sub-streams — the effect Figures 5 and 10 measure.
type CoinFlip struct {
	rng *xrand.Rand
	// fraction, when > 0, fixes the keep probability. Otherwise the
	// probability is derived per interval as budget/len(items), which
	// matches ApproxIoT's budget for a fair comparison (§V-B).
	fraction float64
}

var _ Sampler = (*CoinFlip)(nil)

// Reseed rewinds the coin to its construction seed.
func (c *CoinFlip) Reseed() { c.rng.Reseed() }

// NewCoinFlip returns an SRS sampler whose keep probability tracks the
// interval budget (expected sample size = budget).
func NewCoinFlip(rng *xrand.Rand) *CoinFlip {
	return &CoinFlip{rng: rng}
}

// NewCoinFlipFraction returns an SRS sampler with a fixed keep probability p,
// clamped to (0, 1].
func NewCoinFlipFraction(rng *xrand.Rand, p float64) *CoinFlip {
	if p <= 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return &CoinFlip{rng: rng, fraction: p}
}

// Sample keeps each item with the configured probability.
func (c *CoinFlip) Sample(items []stream.Item, weights stream.WeightMap, budget int) []stream.Batch {
	if len(items) == 0 {
		return nil
	}
	p := c.fraction
	if p == 0 {
		p = float64(budget) / float64(len(items))
		if p > 1 {
			p = 1
		}
	}
	if p <= 0 {
		return nil
	}
	sources, groups := stratify(items)
	batches := make([]stream.Batch, 0, len(sources))
	for i, src := range sources {
		var kept []stream.Item
		for _, it := range groups[i] {
			if c.rng.Bernoulli(p) {
				kept = append(kept, it)
			}
		}
		if len(kept) == 0 {
			continue // sub-stream silently lost — SRS's failure mode
		}
		batches = append(batches, stream.Batch{
			Source: src,
			Weight: weights.Get(src) / p,
			Items:  kept,
		})
	}
	return batches
}
