package sample

import (
	"sync"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// ParallelWHS implements the §III-E distributed-execution extension of
// weighted hierarchical sampling: each sub-stream is handled by w workers,
// each maintaining a local reservoir of size at most N_i/w and a local item
// counter for weight calculation. Workers never synchronize during an
// interval; their per-worker (W^out, sample) pairs are simply concatenated,
// and because the Eq. 8 invariant holds per worker it holds for the union.
//
// Each lineage's items are dealt to the workers round-robin, matching the
// paper's "each worker node samples an equal portion of items". The budget
// is split across sub-streams evenly (EqualSplit), as WHSampler's default.
type ParallelWHS struct {
	workers int
	rngs    []*xrand.Rand
	strata  strata // per-interval scratch (SampleInterval)
	// concurrent enables real goroutine fan-out; with it off the workers
	// run sequentially but produce bit-identical output, which the
	// equivalence tests rely on.
	concurrent bool
}

var _ Sampler = (*ParallelWHS)(nil)

// ParallelOption customizes a ParallelWHS.
type ParallelOption func(*ParallelWHS)

// WithConcurrency toggles real goroutine execution of the workers.
func WithConcurrency(on bool) ParallelOption {
	return func(p *ParallelWHS) { p.concurrent = on }
}

// NewParallelWHS returns a sampler with w workers. Each worker derives its
// own decorrelated generator from seed, so results do not depend on
// goroutine interleaving.
func NewParallelWHS(workers int, seed uint64, opts ...ParallelOption) *ParallelWHS {
	if workers < 1 {
		workers = 1
	}
	p := &ParallelWHS{workers: workers}
	p.rngs = make([]*xrand.Rand, workers)
	for i := range p.rngs {
		p.rngs[i] = xrand.Split(seed, uint64(i))
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Reseed rewinds every worker's generator to its construction seed.
func (p *ParallelWHS) Reseed() {
	for _, r := range p.rngs {
		r.Reseed()
	}
}

// Workers returns the configured worker count.
func (p *ParallelWHS) Workers() int { return p.workers }

// SampleInterval implements the interval loop for the §III-E parallel
// sampler: the budget is split across sub-streams and each sub-stream's share
// over its lineages as WHSampler splits them, and each lineage's share n is
// split again across the w workers (split).
func (p *ParallelWHS) SampleInterval(pairs []stream.Batch, budget int) []stream.Batch {
	g := &p.strata
	k := g.group(pairs)
	if k == 0 || budget <= 0 {
		return nil
	}
	EqualSplit{}.Allocate(budget, g.counts, g.sizes)
	var out []stream.Batch
	for j := 0; j < k; j++ {
		for _, i := range g.lineages(j) {
			out = p.split(out, pairs[i], lineageShare(g.sizes[j], len(pairs[i].Items), g.counts[j]))
		}
	}
	return out
}

// split deals pair's items round-robin to the workers, and each worker
// samples a uniform subset of at most n/w of its hand (never below one slot,
// the same floor as EqualSplit) with its own generator. It appends one
// weighted batch per worker dealt any items onto out, in worker order.
func (p *ParallelWHS) split(out []stream.Batch, pair stream.Batch, n int) []stream.Batch {
	hands := make([][]stream.Item, p.workers)
	for i, it := range pair.Items {
		hands[i%p.workers] = append(hands[i%p.workers], it)
	}
	perWorker := max(n/p.workers, 1)
	batches := make([]stream.Batch, p.workers)
	run := func(w int) {
		if len(hands[w]) > 0 {
			kept, weight := selectInPlace(hands[w], perWorker, p.rngs[w])
			batches[w] = stream.Batch{Source: pair.Source, Weight: pair.Weight * weight, Items: kept}
		}
	}
	if p.concurrent {
		var wg sync.WaitGroup
		for w := range hands {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	} else {
		for w := range hands {
			run(w)
		}
	}
	for _, b := range batches {
		if len(b.Items) > 0 {
			out = append(out, b)
		}
	}
	return out
}
