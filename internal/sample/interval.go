package sample

import (
	"slices"

	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
)

// strata is a sampler's per-interval working set, reused interval after
// interval: the interval's non-empty pairs grouped by sub-stream
// (stream.GroupBySource), and the allocator's inputs and outputs, one entry
// per sub-stream in SourceID order.
type strata struct {
	order  []int32 // indices of the non-empty pairs, stably sorted by Source
	starts []int32 // sub-stream j's pairs are order[starts[j]:starts[j+1]]
	counts []int   // sub-stream j's item count
	sizes  []int   // sub-stream j's reservoir size, from the allocator
	stddev []float64
}

// group clusters pairs by sub-stream and returns the number of sub-streams.
func (g *strata) group(pairs []stream.Batch) int {
	g.order = g.order[:0]
	for i := range pairs {
		if len(pairs[i].Items) > 0 {
			g.order = append(g.order, int32(i))
		}
	}
	g.starts = stream.GroupBySource(pairs, g.order, g.starts[:0])
	k := len(g.starts) - 1
	g.counts = g.counts[:0]
	for j := 0; j < k; j++ {
		c := 0
		for _, i := range g.lineages(j) {
			c += len(pairs[i].Items)
		}
		g.counts = append(g.counts, c)
	}
	g.sizes = slices.Grow(g.sizes[:0], k)[:k]
	return k
}

// lineages returns the indices of sub-stream j's pairs, in arrival order.
func (g *strata) lineages(j int) []int32 { return g.order[g.starts[j]:g.starts[j+1]] }

// allocate sizes every sub-stream's reservoir from budget with alloc —
// variance-aware when it can be, from each sub-stream's sample standard
// deviation over the interval's item values.
func (g *strata) allocate(alloc Allocator, pairs []stream.Batch, budget int) {
	va, ok := alloc.(ValueAware)
	if !ok {
		alloc.Allocate(budget, g.counts, g.sizes)
		return
	}
	g.stddev = g.stddev[:0]
	for j := range g.counts {
		var w stats.Welford
		for _, i := range g.lineages(j) {
			for _, it := range pairs[i].Items {
				w.Add(it.Value)
			}
		}
		g.stddev = append(g.stddev, w.StdDev())
	}
	va.AllocateByVariance(budget, g.counts, g.stddev, g.sizes)
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
// weight lineages, and every lineage is sampled with its weight updated
// per Eq. 1–2.
//
// The paper fills each lineage's reservoir with Algorithm R; at close the
// lineage's length is known, so it is sampled by selection instead
// (selectInPlace), which draws the same distribution — every subset of the
// share's size equally likely — in min(n, N−n) draws rather than one per
// item past the share. Every lineage is sampled in place: an output batch's
// Items is a prefix of the input pair's own slice, so the interval costs no
// item storage at all. The batch headers live in the sampler's own buffer,
// which Reseed takes back (see Sampler): a window node's close allocates
// nothing once its sampler has served a window, and a sampler never
// reseeded gets fresh headers every interval.
func (s *WHSampler) SampleInterval(pairs []stream.Batch, budget int) []stream.Batch {
	g := &s.strata
	k := g.group(pairs)
	if k == 0 || budget <= 0 {
		return nil
	}
	g.allocate(s.alloc, pairs, budget)
	out := s.out.open(len(g.order))
	for j := 0; j < k; j++ {
		ni := g.sizes[j]
		if ni <= 0 {
			continue
		}
		for _, i := range g.lineages(j) {
			pair := &pairs[i]
			kept, w := selectInPlace(pair.Items, lineageShare(ni, len(pair.Items), g.counts[j]), s.rng)
			out = append(out, stream.Batch{Source: pair.Source, Weight: pair.Weight * w, Items: kept})
		}
	}
	return s.out.close(out)
}

// batchBuffer backs the batch headers a sampler returns: buf holds the
// latest interval's, until reset takes them back.
type batchBuffer struct{ buf []stream.Batch }

// open returns the empty buffer the next interval's batches (at most n) are
// appended onto. The headers are reused only once reset has taken the last
// ones back; otherwise the buffer is a fresh one of exactly n, so earlier
// results stay intact and a sampler nobody resets keeps nothing but its
// latest result reachable.
func (b *batchBuffer) open(n int) []stream.Batch {
	if len(b.buf) > 0 || cap(b.buf) < n {
		b.buf = make([]stream.Batch, 0, n)
	}
	return b.buf
}

// close records the interval's batches, appended onto open's buffer, and
// returns them capped so a caller's append cannot run into the buffer's
// spare room; nil when there are none.
func (b *batchBuffer) close(out []stream.Batch) []stream.Batch {
	if len(out) == 0 {
		return nil
	}
	b.buf = out
	return out[:len(out):len(out)]
}

// reset takes back the batches returned last, dropping their item views.
func (b *batchBuffer) reset() {
	clear(b.buf)
	b.buf = b.buf[:0]
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
