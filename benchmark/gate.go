package main

import (
	"fmt"
	"math"

	"github.com/approxiot/approxiot/internal/query"
)

// The correctness gate: every run is checked against the exact per-window
// reference computed from the generated input. Any miss is a failed
// operation and a non-zero exit.

const (
	relTol = 1e-9
	// coverageWindows is the fewest windows the coverage floors
	// (spec.sumCoverMin, spec.p90CoverMin) are applied to; shorter
	// (self-test) runs report coverage without gating on it.
	coverageWindows = 50
	// nominalCoverage is the share of windows issue 11 wants the exact answer
	// inside the reported 95 % bound. A workload whose floor sits below it
	// misses it today; every such run says so (verdict.known) without
	// failing, and fails only below the workload's own floor.
	nominalCoverage = 0.85
)

// verdict is the gate's result.
type verdict struct {
	attempted int64 // items pushed + windows expected
	failed    int64
	problems  []string
	known     []string // misses of a nominal target that are documented, printed, and not failed

	sumRelErrPct float64 // mean over windows of |SUM estimate − exact| ÷ exact
	sumCoverage  float64 // share of windows with the exact SUM inside the bound
	p90Coverage  float64 // likewise for the exact p90 (1 when no quantile query)
	topKRecall   float64 // mean share of the true top-8 strata reported (1 when no top-k query)
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func (v *verdict) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	v.failed += n
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// check applies the gate to a finished run. pushed is every item the run
// pushed into the deployment it measured, warm-up included.
func check(run *liveRun, pushed int64) verdict {
	out := &run.out
	v := verdict{attempted: pushed + int64(len(run.expected)), p90Coverage: 1, topKRecall: 1}
	census := run.sp.fraction >= 1

	if run.pushErrors > 0 {
		v.fail(run.pushErrors, "%d items' Push returned an error", run.pushErrors)
	}
	if out.produced != pushed {
		v.fail(abs64(out.produced-pushed), "deployment counted %d produced items, generator pushed %d", out.produced, pushed)
	}

	// Accounting identity: every pushed item is estimated into a window or
	// counted as a late drop.
	var estimated float64
	for _, w := range out.windows {
		estimated += w.EstimatedInput
	}
	if total := estimated + out.lateDroppedInput; relDiff(total, float64(pushed)) > relTol {
		v.fail(int64(math.Ceil(math.Abs(total-float64(pushed)))),
			"Σ EstimatedInput + LateDroppedInput = %.3f, pushed %d", total, pushed)
	}
	if out.lateDropped != run.tooLate {
		v.fail(abs64(out.lateDropped-run.tooLate), "LateDropped = %d, generator emitted %d items beyond the lateness horizon", out.lateDropped, run.tooLate)
	}

	// Windows: exactly the expected set, each against its reference.
	seen := make(map[int64]bool, len(out.windows))
	var covered, p90Covered, quantiled, ranked int
	var errSum, recallSum float64
	for _, w := range out.windows {
		start := w.Start.UnixNano()
		ref, ok := run.expected[start]
		switch {
		case !ok:
			v.fail(1, "unexpected window starting %v", w.Start)
			continue
		case seen[start]:
			v.fail(1, "window starting %v emitted twice", w.Start)
			continue
		}
		seen[start] = true
		// Eq. 8: the count estimate is exact at any sampling fraction.
		if relDiff(w.EstimatedInput, float64(ref.count)) > relTol ||
			relDiff(w.Result(query.Count).Estimate.Value, float64(ref.count)) > relTol {
			v.fail(1, "window %v COUNT %.3f, exact %d", w.Start, w.EstimatedInput, ref.count)
		}
		sum := w.Result(query.Sum)
		errSum += relDiff(sum.Estimate.Value, ref.sum)
		if census && relDiff(sum.Estimate.Value, ref.sum) > relTol {
			v.fail(1, "window %v census SUM %.6f, exact %.6f", w.Start, sum.Estimate.Value, ref.sum)
		}
		if math.Abs(sum.Estimate.Value-ref.sum) <= sum.Bound()+relTol*math.Abs(ref.sum) {
			covered++
		}
		for _, r := range w.Results {
			switch {
			case r.Kind.IsQuantile() && r.Quantile != nil:
				quantiled++
				if r.Quantile.Lo <= ref.p90 && ref.p90 <= r.Quantile.Hi {
					p90Covered++
				}
			case r.Kind.IsTopK():
				ranked++
				recallSum += recall(r.Groups, ref)
			}
		}
	}
	if missing := len(run.expected) - len(seen); missing > 0 {
		v.fail(int64(missing), "%d of %d expected windows never emitted", missing, len(run.expected))
	}
	if n := len(seen); n > 0 {
		v.sumRelErrPct = 100 * errSum / float64(n)
		v.sumCoverage = float64(covered) / float64(n)
		if quantiled > 0 {
			v.p90Coverage = float64(p90Covered) / float64(quantiled)
		}
		if ranked > 0 {
			v.topKRecall = recallSum / float64(ranked)
		}
		if !census && n >= coverageWindows {
			v.cover("SUM", v.sumCoverage, run.sp.sumCoverMin, n-covered, n)
			v.cover("p90", v.p90Coverage, run.sp.p90CoverMin, quantiled-p90Covered, quantiled)
			// Accuracy is bounded like any other end-to-end number, here rather
			// than in BENCHMARK.json because it is exactly 0 at census.
			if ceiling := run.sp.sumErrMaxPct; ceiling > 0 && v.sumRelErrPct > ceiling {
				v.fail(1, "mean SUM relative error %.4f%%, ceiling %.4f%%", v.sumRelErrPct, ceiling)
			}
		}
	}

	// Open loop: every offered rate must be sustained by the system — results
	// inside the latency limit, no growing backlog. "No decrease" of the
	// sustained rate is gated here because the rate is a step, not a number
	// a relative bound fits.
	for i := range run.segs {
		if s := &run.segs[i]; run.sp.paced && !keptUp(run.sp, s) {
			v.fail(1, "step %s (%d items/s) not sustained: latency p90 %.1f ms (limit %v), ingest lag %d→%d",
				s.name, s.rate, s.p90(), run.sp.latencyLimit, s.lagStart, s.lagEnd)
		}
	}

	// Counters that must stay zero on a healthy run.
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"DecodeErrors", out.decodeErrors},
		{"SubscriberDrops", out.subscriberDrops},
		{"transport send errors", out.net.SendErrors},
		{"transport poll errors", out.net.PollErrors},
		{"transport reconnects", out.net.Reconnects},
	} {
		if c.n != 0 {
			v.fail(c.n, "%s = %d", c.name, c.n)
		}
	}
	if out.drainTimedOut {
		v.fail(1, "DrainTimedOut")
	}
	return v
}

// cover gates one coverage share: below the workload's floor it fails,
// between the floor and nominalCoverage it is a known, printed miss.
func (v *verdict) cover(what string, share, floor float64, missed, of int) {
	switch {
	case share < floor:
		v.fail(int64(missed), "exact %s inside the 95%% bound in only %.1f%% of %d windows (floor %.0f%%)", what, 100*share, of, 100*floor)
	case floor > 0 && share < nominalCoverage: // floor 0: the self-test variant, ungated
		v.known = append(v.known, fmt.Sprintf("exact %s inside the 95%% bound in %.1f%% of %d windows, below the nominal %.0f%% (gated at %.0f%%: README, Coverage floors)",
			what, 100*share, of, 100*nominalCoverage, 100*floor))
	}
}

// recall is the share of the true top strata present in the reported groups.
func recall(groups []query.GroupEstimate, ref winRef) float64 {
	if len(ref.top) == 0 {
		return 1
	}
	hit := 0
	for _, id := range ref.top {
		for _, g := range groups {
			if g.Source == id {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(ref.top))
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}
