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
// Items are spread across workers round-robin per sub-stream, matching the
// paper's "each worker node samples an equal portion of items".
type ParallelWHS struct {
	workers int
	alloc   Allocator
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

// WithParallelAllocator overrides the budget-split policy (default EqualSplit).
func WithParallelAllocator(a Allocator) ParallelOption {
	return func(p *ParallelWHS) { p.alloc = a }
}

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
	p := &ParallelWHS{workers: workers, alloc: EqualSplit{}}
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

// Sample stratifies items, splits each sub-stream round-robin across the
// workers, samples a uniform subset of at most N_i/w from each share, and
// emits one weighted batch per (sub-stream, worker) pair.
func (p *ParallelWHS) Sample(items []stream.Item, weights stream.WeightMap, budget int) []stream.Batch {
	return p.sample(nil, items, budget, weights.Get)
}

// sample is Sample over items whose input weights weightOf gives, with the
// batches appended onto out.
func (p *ParallelWHS) sample(out []stream.Batch, items []stream.Item, budget int, weightOf func(stream.SourceID) float64) []stream.Batch {
	if len(items) == 0 {
		return out
	}
	sources, groups := stratify(items)
	sizes := groupSizes(p.alloc, budget, groups)

	// shares[w] collects this worker's slice of every sub-stream.
	type task struct {
		src   stream.SourceID
		items []stream.Item
		cap   int
		wIn   float64
	}
	tasks := make([][]task, p.workers)
	for g, src := range sources {
		ni := sizes[g]
		if ni <= 0 {
			continue
		}
		perWorker := ni / p.workers
		if perWorker < 1 {
			perWorker = 1 // never below one slot, same floor as EqualSplit
		}
		shares := make([][]stream.Item, p.workers)
		for i, it := range groups[g] {
			w := i % p.workers
			shares[w] = append(shares[w], it)
		}
		wIn := weightOf(src)
		for w := 0; w < p.workers; w++ {
			if len(shares[w]) == 0 {
				continue
			}
			tasks[w] = append(tasks[w], task{src: src, items: shares[w], cap: perWorker, wIn: wIn})
		}
	}

	results := make([][]stream.Batch, p.workers)
	run := func(w int) {
		rng := p.rngs[w]
		for _, t := range tasks[w] {
			kept, weight := selectInPlace(t.items, t.cap, rng)
			results[w] = append(results[w], stream.Batch{
				Source: t.src,
				Weight: t.wIn * weight,
				Items:  kept,
			})
		}
	}
	if p.concurrent {
		var wg sync.WaitGroup
		for w := 0; w < p.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	} else {
		for w := 0; w < p.workers; w++ {
			run(w)
		}
	}

	for w := 0; w < p.workers; w++ {
		out = append(out, results[w]...)
	}
	return out
}
