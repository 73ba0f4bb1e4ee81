package core

import (
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stats"
)

// Sliding windows by pane composition ([10], [11] in PAPER.md): a sliding
// window of length slide × Window is the sum of its last slide tumbling
// panes. Only additive aggregates slide — SUM and COUNT — because for those
// both the value and the Eq. 11 variance add across disjoint panes, so the
// composed estimate keeps a rigorous error bound. MEAN, top-k, and quantile
// answers are not additive across panes and stay tumbling-only.
//
// Both runners feed the same slidingState at the same point — the root's
// window emit, after empty windows are skipped — so sim and live compose
// identical pane sequences under the same seed. Every window they emit is an
// event window with its Start set.

// SlidingResult is one sliding-window estimate attached to the tumbling
// window that completes it.
type SlidingResult struct {
	Kind query.Kind
	// Estimate sums the last Panes tumbling pane estimates; values and
	// variances both add (independent panes), keeping bounds rigorous.
	Estimate   stats.Estimate
	Confidence stats.Confidence
	// Panes is how many tumbling panes the estimate composes. It is below
	// the configured slide during warm-up (the first slide−1 windows).
	Panes int
}

// Bound returns the half-width of the sliding estimate's confidence interval.
func (s SlidingResult) Bound() float64 { return s.Estimate.Bound(s.Confidence) }

// Interval returns the [lo, hi] confidence interval.
func (s SlidingResult) Interval() (lo, hi float64) { return s.Estimate.Interval(s.Confidence) }

// slidingKinds selects the additive subset of the registered query kinds —
// the ones whose estimates may be composed across panes.
func slidingKinds(kinds []query.Kind) []query.Kind {
	var out []query.Kind
	for _, k := range kinds {
		if k == query.Sum || k == query.Count {
			out = append(out, k)
		}
	}
	return out
}

// slidingState owns one query.Slider ring per additive kind and is driven by
// the single goroutine (or event loop) that emits root windows.
type slidingState struct {
	slide   int
	window  time.Duration
	conf    stats.Confidence
	kinds   []query.Kind
	sliders []*query.Slider

	// Event-time gap tracking: emitted window starts are monotone, so the
	// distance between consecutive starts reveals skipped (empty) panes.
	lastStart int64
	seen      bool
}

// newSlidingState returns nil when sliding is off (slide < 2) or no
// registered kind is additive.
func newSlidingState(slide int, window time.Duration, conf stats.Confidence, kinds []query.Kind) *slidingState {
	sk := slidingKinds(kinds)
	if slide < 2 || len(sk) == 0 {
		return nil
	}
	ss := &slidingState{slide: slide, window: window, conf: conf, kinds: sk}
	for range sk {
		ss.sliders = append(ss.sliders, query.NewSlider(slide))
	}
	return ss
}

// observe folds one emitted tumbling window into the pane rings and attaches
// the sliding estimates to it. Event-time panes that were never emitted
// (SampleSize 0 windows are skipped before this point) are zero by
// definition, so gap-fill pushes zero panes to keep the composed window
// spanning exactly slide × Window of event time.
func (ss *slidingState) observe(win *WindowResult) {
	if ss.seen {
		gap := int((win.Start.UnixNano()-ss.lastStart)/int64(ss.window)) - 1
		if gap > ss.slide {
			gap = ss.slide
		}
		for g := 0; g < gap; g++ {
			for _, sl := range ss.sliders {
				sl.Push(stats.Estimate{})
			}
		}
	}
	// An ingest-stamped window reopened behind the last start fills no gap
	// and moves nothing back.
	ss.lastStart = max(ss.lastStart, win.Start.UnixNano())
	ss.seen = true
	win.Sliding = make([]SlidingResult, len(ss.kinds))
	for i, k := range ss.kinds {
		cur := ss.sliders[i].Push(win.Result(k).Estimate)
		win.Sliding[i] = SlidingResult{
			Kind:       k,
			Estimate:   cur,
			Confidence: ss.conf,
			Panes:      ss.sliders[i].Len(),
		}
	}
}
