package sample

import (
	"cmp"
	"slices"
)

// Allocator decides the per-sub-stream reservoir sizes N_i given the node's
// total sample budget — the getSampleSize step of Algorithm 1 (line 7). The
// paper leaves the policy open; this package provides the fair equal split
// used by the evaluation plus alternatives benchmarked in the allocation
// ablation (DESIGN.md §7).
//
// An allocation is over slices, one entry per sub-stream in SourceID order:
// counts[i] is sub-stream i's item count in the interval and Allocate writes
// its reservoir size to sizes[i]. The sampler owns both slices and reuses
// them interval after interval, so an allocation costs no map and no
// allocation.
type Allocator interface {
	// Allocate splits total across counts into sizes (len(sizes) ==
	// len(counts)). Implementations must be deterministic, never write a
	// negative size, and — unless total <= 0, which sizes every sub-stream
	// at zero — give every sub-stream at least one slot so no stratum is
	// neglected (§III-A). Ties are broken in SourceID order.
	Allocate(total int, counts, sizes []int)
}

// EqualSplit divides the budget evenly across sub-streams, the fairness
// policy stratified sampling is built on: every stratum gets the same
// reservoir regardless of its arrival rate, so infrequent-but-significant
// sub-streams (Fig. 10c's sub-stream D) are never starved.
type EqualSplit struct{}

var _ Allocator = EqualSplit{}

// Allocate gives each sub-stream total/k slots, distributing the remainder
// to the lexicographically-first sub-streams, with a minimum of one slot.
func (EqualSplit) Allocate(total int, counts, sizes []int) {
	k := len(counts)
	if k == 0 {
		return
	}
	if total <= 0 {
		clear(sizes[:k])
		return
	}
	base, rem := total/k, total%k
	for i := range sizes[:k] {
		n := base
		if i < rem {
			n++
		}
		sizes[i] = max(n, 1)
	}
}

// WaterFill allocates max-min fairly: every sub-stream receives an equal
// share, and budget a small sub-stream cannot use (its count is below the
// share) is redistributed to the larger ones. This keeps the node's total
// sample at exactly min(budget, input) even when sub-stream rates are very
// unbalanced (Fig. 10's settings), while preserving EqualSplit's guarantee
// that no sub-stream is neglected.
type WaterFill struct{}

var _ Allocator = WaterFill{}

// Allocate implements max-min fair (water-filling) allocation. Visiting the
// sub-streams by ascending count (ties in SourceID order), each takes its
// whole count while that fits an even share of what remains. From the first
// that does not, every later one is capped too — its count is no smaller and
// the share no larger — and they split what remains evenly, the remainder
// going one slot each to the first of them. So a sub-stream's size follows
// from which of two cut points in that order it falls before, and sizes can
// hold the visiting order until the sizes overwrite it.
func (WaterFill) Allocate(total int, counts, sizes []int) {
	k := len(counts)
	if k == 0 {
		return
	}
	if total <= 0 {
		clear(sizes[:k])
		return
	}
	byCount := func(a, b int) int {
		if c := cmp.Compare(counts[a], counts[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	order := sizes[:k]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, byCount)
	remaining, full := total, 0
	for ; full < k; full++ {
		left := k - full
		share := remaining / left
		if remaining%left > 0 {
			share++
		}
		c := counts[order[full]]
		if c > share {
			break
		}
		remaining = max(remaining-max(c, 1), 0) // fairness floor: never neglect a sub-stream
	}
	var q, r int
	firstCapped, firstBase := -1, -1 // -1: no such sub-stream
	if left := k - full; left > 0 {
		q, r = remaining/left, remaining%left
		firstCapped, firstBase = order[full], order[full+r]
	}
	before := func(i, cut int) bool { return cut < 0 || byCount(i, cut) < 0 }
	for i := range sizes[:k] {
		switch {
		case before(i, firstCapped):
			sizes[i] = max(counts[i], 1)
		case before(i, firstBase):
			sizes[i] = q + 1
		default:
			sizes[i] = max(q, 1)
		}
	}
}

// ValueAware is an optional Allocator extension: policies that use the
// sub-streams' observed value dispersion in addition to their counts.
// WHSampler computes per-stratum standard deviations and prefers this
// method when the configured allocator implements it.
type ValueAware interface {
	Allocator
	// AllocateByVariance splits total using both counts and per-stratum
	// sample standard deviations (stddev[i] for sub-stream i), writing
	// sizes as Allocate does.
	AllocateByVariance(total int, counts []int, stddev []float64, sizes []int)
}

// Neyman implements optimal (Neyman) allocation, the classical
// variance-minimizing split for stratified estimation of a total:
// N_i ∝ c_i·s_i. Sub-streams that are large *and* volatile get bigger
// reservoirs; constant-valued sub-streams need almost none. This is an
// extension beyond the paper (its evaluation uses fair allocation), wired
// into the allocation ablation.
type Neyman struct{}

var _ ValueAware = Neyman{}

// Allocate falls back to water-filling when no variances are available.
func (Neyman) Allocate(total int, counts, sizes []int) {
	WaterFill{}.Allocate(total, counts, sizes)
}

// AllocateByVariance splits total with N_i ∝ c_i·s_i (minimum one slot).
// Zero-variance strata still receive a floor so their counts stay exact.
func (Neyman) AllocateByVariance(total int, counts []int, stddev []float64, sizes []int) {
	k := len(counts)
	if k == 0 {
		return
	}
	if total <= 0 {
		clear(sizes[:k])
		return
	}
	var denom float64
	for i, c := range counts {
		denom += float64(c) * stddev[i]
	}
	if denom == 0 {
		WaterFill{}.Allocate(total, counts, sizes)
		return
	}
	remaining := total
	for i, c := range counts {
		n := int(float64(total)*float64(c)*stddev[i]/denom + 0.5)
		if n < 1 {
			n = 1
		}
		if n > c {
			n = c // a census of the stratum is enough
		}
		if n > remaining {
			n = remaining
		}
		if n < 1 {
			n = 1
		}
		sizes[i] = n
		remaining -= n
		if remaining < 0 {
			remaining = 0
		}
	}
}

// Proportional sizes each reservoir in proportion to the sub-stream's item
// count in the interval. This mimics what simple random sampling achieves in
// expectation and serves as the contrast arm of the allocation ablation: it
// starves rare sub-streams exactly the way Fig. 10c punishes.
type Proportional struct{}

var _ Allocator = Proportional{}

// Allocate gives each sub-stream round(total·c_i/Σc) slots, minimum one.
func (Proportional) Allocate(total int, counts, sizes []int) {
	k := len(counts)
	if k == 0 {
		return
	}
	if total <= 0 {
		clear(sizes[:k])
		return
	}
	var sum int
	for _, c := range counts {
		sum += c
	}
	if sum == 0 {
		for i := range sizes[:k] {
			sizes[i] = 1
		}
		return
	}
	remaining := total
	for i, c := range counts {
		n := int(float64(total)*float64(c)/float64(sum) + 0.5)
		if n < 1 {
			n = 1
		}
		if n > remaining {
			n = remaining
		}
		if n < 1 {
			n = 1 // fairness floor even when the budget has run out
		}
		sizes[i] = n
		remaining -= n
	}
}
