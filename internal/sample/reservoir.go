package sample

import (
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Reservoir selects a uniform random sample of at most Cap items from a
// stream of unknown length using Vitter's Algorithm R [7] (§II-B2): the
// first Cap items are kept; the i-th item thereafter replaces a random slot
// with probability Cap/i. Every item ends up in the reservoir with
// probability Cap/Seen. It costs one draw per item past Cap; the samplers,
// which see an interval's whole lineage before sampling it, draw the same
// distribution of subsets by selection instead (selectInPlace), at
// min(Cap, Seen−Cap) draws.
type Reservoir struct {
	rng   *xrand.Rand
	cap   int
	items []stream.Item
	seen  int64
}

// NewReservoir returns a reservoir of the given capacity. A capacity <= 0
// keeps nothing (the degenerate zero-budget case).
func NewReservoir(capacity int, rng *xrand.Rand) *Reservoir {
	if capacity < 0 {
		capacity = 0
	}
	return &Reservoir{rng: rng, cap: capacity, items: make([]stream.Item, 0, capacity)}
}

// Add offers one item to the reservoir.
func (r *Reservoir) Add(it stream.Item) {
	r.seen++
	if r.cap == 0 {
		return
	}
	if len(r.items) < r.cap {
		r.items = append(r.items, it)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = it
	}
}

// AddAll offers a slice of items in order.
func (r *Reservoir) AddAll(items []stream.Item) {
	for _, it := range items {
		r.Add(it)
	}
}

// Items returns the current sample. The returned slice is owned by the
// reservoir; callers that retain it across Reset must copy.
func (r *Reservoir) Items() []stream.Item { return r.items }

// Seen returns the number of items offered so far (c_i in Algorithm 1).
func (r *Reservoir) Seen() int64 { return r.seen }

// Cap returns the reservoir capacity (N_i in Algorithm 1).
func (r *Reservoir) Cap() int { return r.cap }

// Len returns the number of items currently held (c̃_i; min(c, N)).
func (r *Reservoir) Len() int { return len(r.items) }

// Weight returns the local weight w_i of Equation 1: c/N when the stream
// overflowed the reservoir, 1 otherwise.
func (r *Reservoir) Weight() float64 {
	if r.seen > int64(r.cap) && r.cap > 0 {
		return float64(r.seen) / float64(r.cap)
	}
	return 1
}

// Reset empties the reservoir for the next interval, retaining capacity.
func (r *Reservoir) Reset() {
	r.items = r.items[:0]
	r.seen = 0
}

// selectInPlace draws a uniform random subset of n of the items — simple
// random sampling without replacement, each n-subset equally likely — by a
// partial Fisher–Yates shuffle of the slice itself, and returns it as the
// prefix items[:n] with the Eq. 1 local weight len(items)/n (the whole slice
// at weight 1 when everything fits). With N = len(items) it takes
// min(n, N−n) draws: n forward swaps, each bringing a uniform pick of the
// items not yet chosen to the front, when n ≤ N−n; otherwise N−n backward
// swaps that pick the complement into the tail. Unlike Algorithm R it needs
// N up front, which a window node has at close; it needs no storage of its
// own. n must be at least 1.
func selectInPlace(items []stream.Item, n int, rng *xrand.Rand) ([]stream.Item, float64) {
	size := len(items)
	if size <= n {
		return items, 1
	}
	if n <= size-n {
		for i := 0; i < n; i++ {
			j := i + rng.Intn(size-i)
			items[i], items[j] = items[j], items[i]
		}
	} else {
		for i := size - 1; i >= n; i-- {
			j := rng.Intn(i + 1)
			items[i], items[j] = items[j], items[i]
		}
	}
	return items[:n], float64(size) / float64(n)
}
