package sample

import (
	"fmt"
	"math"
	"testing"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// chiSquareCritical is the upper 3·10⁻⁵ point of the chi-square distribution
// with df degrees of freedom (Wilson–Hilferty, z = 4).
func chiSquareCritical(df int) float64 {
	k := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-k+4*math.Sqrt(k), 3)
}

type selector func(items []stream.Item, n int, rng *xrand.Rand) ([]stream.Item, float64)

// srsworMisfit runs sel over trials fresh copies of size items, n kept, on
// one seeded generator, and reports how the kept subsets miss simple random
// sampling without replacement: the subsets' chi-square against C(size, n)
// equally likely ones, over its critical value, or an item whose inclusion
// frequency is more than five standard errors from n/size. "" is a fit.
func srsworMisfit(sel selector, size, n, trials int, seed uint64) string {
	rng := xrand.New(seed)
	base := mkItems("a", size)
	items := make([]stream.Item, size)
	bySubset := make(map[uint]int)
	included := make([]int, size)
	for trial := 0; trial < trials; trial++ {
		copy(items, base)
		kept, w := sel(items, n, rng)
		if len(kept) != n || w != float64(size)/float64(n) {
			return "wrong sample size or weight"
		}
		var mask uint
		for _, it := range kept {
			mask |= 1 << uint(it.Value)
			included[int(it.Value)]++
		}
		bySubset[mask]++
	}
	subsets := binomial(size, n)
	expect := float64(trials) / float64(subsets)
	chi2 := float64(subsets-len(bySubset)) * expect // the subsets never drawn
	for _, c := range bySubset {
		chi2 += (float64(c) - expect) * (float64(c) - expect) / expect
	}
	if crit := chiSquareCritical(subsets - 1); chi2 > crit {
		return fmt.Sprintf("subset chi-square %.1f over %.1f", chi2, crit)
	}
	p := float64(n) / float64(size)
	se := math.Sqrt(p * (1 - p) / float64(trials))
	for i, c := range included {
		if f := float64(c) / float64(trials); math.Abs(f-p) > 5*se {
			return fmt.Sprintf("item %d included at %.4f, want %.4f", i, f, p)
		}
	}
	return ""
}

func binomial(n, k int) int {
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// TestSelectionIsSRSWOR holds selectInPlace to its distribution: for N = 5
// and 6 and every n in 1..N−1 — both the forward (n ≤ N−n) and the backward
// branch — every n-subset is equally likely and every item is kept with
// probability n/N, over 60 000 seeded selections each. The same check
// rejects a selection whose swap never leaves an item where it is (j drawn
// from [i+1, N) forward, [0, i) backward), so it has the power to see a
// biased swap.
func TestSelectionIsSRSWOR(t *testing.T) {
	const trials = 60000
	biased := func(items []stream.Item, n int, rng *xrand.Rand) ([]stream.Item, float64) {
		size := len(items)
		if n <= size-n {
			for i := 0; i < n; i++ {
				j := i + 1 + rng.Intn(size-i-1)
				items[i], items[j] = items[j], items[i]
			}
		} else {
			for i := size - 1; i >= n; i-- {
				j := rng.Intn(i)
				items[i], items[j] = items[j], items[i]
			}
		}
		return items[:n], float64(size) / float64(n)
	}
	for _, size := range []int{5, 6} {
		for n := 1; n < size; n++ {
			seed := uint64(100*size + n)
			if why := srsworMisfit(selectInPlace, size, n, trials, seed); why != "" {
				t.Errorf("N=%d n=%d: selection is not SRSWOR: %s", size, n, why)
			}
			if srsworMisfit(biased, size, n, trials, seed) == "" {
				t.Errorf("N=%d n=%d: the check passed a biased swap", size, n)
			}
		}
	}
}

// BenchmarkSelectInPlace is one lineage's selection at the paper's operating
// point: 205 of 2048 items, about a tenth, so 205 forward swaps. The slice
// is selected again as it was left, the way a window node's Ψ storage is
// reused. CI gates its allocations at zero.
func BenchmarkSelectInPlace(b *testing.B) {
	items := mkItems("a", 2048)
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if kept, _ := selectInPlace(items, 205, rng); len(kept) != 205 {
			b.Fatalf("kept %d, want 205", len(kept))
		}
	}
}
