package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Mean() != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", h.Mean())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 30*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v, want 10ms/30ms", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		rel := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if rel > 0.08 {
			t.Errorf("Quantile(%g) = %v, want %v ± 8%% (off by %.1f%%)", tc.q, got, tc.want, rel*100)
		}
	}
}

func TestHistogramQuantileExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	if got := h.Quantile(0); got != 5*time.Millisecond {
		t.Fatalf("Quantile(0) = %v, want min", got)
	}
	if got := h.Quantile(1); got != 50*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want max", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram returned non-zero stats")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)
	if h.Min() != 0 {
		t.Fatalf("negative sample recorded as %v, want clamped to 0", h.Min())
	}
}

func TestHistogramHugeDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(2000 * time.Second) // beyond the top decade
	if h.Count() != 1 {
		t.Fatal("out-of-range sample dropped")
	}
	if got := h.Quantile(0.5); got != 2000*time.Second {
		t.Fatalf("Quantile = %v, want clamped to max", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("Count = %d, want 4000", h.Count())
	}
}

func TestBandwidthAccount(t *testing.T) {
	b := NewBandwidthAccount()
	b.Add("l1", 100)
	b.Add("l1", 50)
	b.Add("l2", 25)
	if b.Link("l1") != 150 || b.Link("l2") != 25 {
		t.Fatalf("per-link = %d/%d, want 150/25", b.Link("l1"), b.Link("l2"))
	}
	if b.Total() != 175 {
		t.Fatalf("Total = %d, want 175", b.Total())
	}
}

func TestSavingRate(t *testing.T) {
	tests := []struct {
		sampled, baseline int64
		want              float64
	}{
		{100, 1000, 0.9},
		{1000, 1000, 0},
		{0, 1000, 1},
		{500, 0, 0},     // no baseline
		{2000, 1000, 0}, // sampled exceeded baseline; clamp
	}
	for _, tc := range tests {
		if got := SavingRate(tc.sampled, tc.baseline); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("SavingRate(%d,%d) = %g, want %g", tc.sampled, tc.baseline, got, tc.want)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Millisecond)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		a.Observe(d)
	}
	for _, d := range []time.Duration{100 * time.Microsecond, 50 * time.Millisecond} {
		b.Observe(d)
	}

	whole := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		100 * time.Microsecond, 50 * time.Millisecond} {
		whole.Observe(d)
	}

	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), whole.Count())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	if a.Mean() != whole.Mean() {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	for _, q := range []float64{0.25, 0.5, 0.95} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merged q%.2f = %v, want %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}

	// Merging an empty histogram is a no-op; merging into an empty one
	// copies min/max instead of keeping the zero min.
	before := a.Count()
	a.Merge(NewHistogram())
	if a.Count() != before {
		t.Fatalf("empty merge changed count to %d", a.Count())
	}
	empty := NewHistogram()
	empty.Merge(b)
	if empty.Min() != b.Min() || empty.Max() != b.Max() || empty.Count() != b.Count() {
		t.Fatalf("merge into empty = %d/%v/%v, want %d/%v/%v",
			empty.Count(), empty.Min(), empty.Max(), b.Count(), b.Min(), b.Max())
	}
}

// ObserveN(d, n) must leave exactly the integer state n Observe(d) calls
// leave — buckets, count, sum, min and max — including for clamped negative
// durations, over-range ones, and the n <= 0 no-op.
func TestHistogramObserveNEqualsLoop(t *testing.T) {
	type state struct {
		buckets               [histBuckets]int64
		count, sum, min, max_ int64
	}
	load := func(h *Histogram) (s state) {
		for i := range h.buckets {
			s.buckets[i] = h.buckets[i].Load()
		}
		s.count, s.sum, s.min, s.max_ = h.count.Load(), h.sum.Load(), h.min.Load(), h.max.Load()
		return s
	}
	runs := []struct {
		d time.Duration
		n int64
	}{
		{3 * time.Millisecond, 512}, {0, 7}, {-time.Second, 3}, {17 * time.Microsecond, 1},
		{3 * time.Millisecond, 2}, {400 * time.Hour, 5}, {time.Nanosecond, 64}, {time.Second, 0}, {time.Second, -4},
	}
	loop, bulk := NewHistogram(), NewHistogram()
	for _, r := range runs {
		for i := int64(0); i < r.n; i++ {
			loop.Observe(r.d)
		}
		bulk.ObserveN(r.d, r.n)
		if got, want := load(bulk), load(loop); got != want {
			t.Fatalf("after ObserveN(%v, %d): state %+v, per-item loop %+v", r.d, r.n, got, want)
		}
	}
	if bulk.Quantile(0.5) != loop.Quantile(0.5) || bulk.Mean() != loop.Mean() {
		t.Fatalf("derived stats differ: %v vs %v", bulk, loop)
	}
}

func TestHistogramSnapshotWhileWriting(t *testing.T) {
	// The live session reads latency mid-run: Snapshot must return a
	// consistent, independent copy while observers keep writing (run under
	// -race in CI).
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(1+i%1000) * time.Microsecond)
				}
			}
		}()
	}
	var last int64
	for i := 0; i < 100; i++ {
		snap := h.Snapshot()
		n := snap.Count()
		if n < last {
			t.Fatalf("snapshot count went backwards: %d after %d", n, last)
		}
		last = n
		// The copy is independent: mutating it must not touch the source.
		snap.Observe(time.Hour)
		_ = snap.Quantile(0.99)
	}
	close(stop)
	wg.Wait()
	if h.Max() >= time.Hour {
		t.Fatal("snapshot mutation leaked into the source histogram")
	}
	final := h.Snapshot()
	if final.Count() != h.Count() || final.Mean() != h.Mean() {
		t.Fatalf("quiescent snapshot differs: %v vs %v", final, h)
	}
}

func TestBandwidthSnapshotWhileWriting(t *testing.T) {
	b := NewBandwidthAccount()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			link := fmt.Sprintf("link%d", w)
			for {
				select {
				case <-stop:
					return
				default:
					b.Add(link, 8)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		snap := b.Snapshot()
		var total int64
		for _, n := range snap {
			total += n
		}
		if total < 0 {
			t.Fatal("negative total")
		}
		snap["intruder"] = 1 // caller owns the copy
	}
	close(stop)
	wg.Wait()
	if b.Link("intruder") != 0 {
		t.Fatal("snapshot map aliases the account")
	}
	snap := b.Snapshot()
	delete(snap, "intruder")
	var total int64
	for _, n := range snap {
		total += n
	}
	if total != b.Total() {
		t.Fatalf("quiescent snapshot total %d != account total %d", total, b.Total())
	}
}

// TestBandwidthCounters pins the hot-path accounting form: per-member
// counters registered on a link accumulate contention-free and are merged
// with Add-side bytes at read time, across Link, Total, and Snapshot.
func TestBandwidthCounters(t *testing.T) {
	b := NewBandwidthAccount()
	c1 := b.Counter("edge")
	c2 := b.Counter("edge") // second member, same link
	c3 := b.Counter("root")
	c1.Add(10)
	c2.Add(5)
	c3.Add(7)
	b.Add("edge", 100) // slow-path adds merge with counters
	b.Add("ctl", 3)
	if got := b.Link("edge"); got != 115 {
		t.Fatalf("Link(edge) = %d, want 115", got)
	}
	if got := b.Total(); got != 125 {
		t.Fatalf("Total = %d, want 125", got)
	}
	snap := b.Snapshot()
	want := map[string]int64{"edge": 115, "root": 7, "ctl": 3}
	if len(snap) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	for link, n := range want {
		if snap[link] != n {
			t.Fatalf("Snapshot[%s] = %d, want %d", link, snap[link], n)
		}
	}
}

// TestBandwidthCountersConcurrent hammers one link's counters from many
// goroutines while a reader folds totals, under the race detector.
func TestBandwidthCountersConcurrent(t *testing.T) {
	b := NewBandwidthAccount()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: totals must only ever grow
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := b.Total(); got < last {
				t.Errorf("Total regressed: %d after %d", got, last)
				return
			} else {
				last = got
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c := b.Counter("hot")
			for i := 0; i < perWorker; i++ {
				c.Add(1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := b.Link("hot"); got != workers*perWorker {
		t.Fatalf("Link(hot) = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram()
	samples := []time.Duration{
		5 * time.Microsecond,
		5 * time.Microsecond,
		800 * time.Microsecond,
		30 * time.Millisecond,
		30 * time.Millisecond,
		30 * time.Millisecond,
		2 * time.Second,
	}
	for _, d := range samples {
		h.Observe(d)
	}
	bks := h.Buckets()
	if len(bks) != 4 {
		t.Fatalf("Buckets() = %d entries, want 4 (one per distinct populated bucket): %+v", len(bks), bks)
	}
	// Cumulative counts along the distinct sample magnitudes.
	wantCum := []int64{2, 3, 6, 7}
	for i, bk := range bks {
		if bk.Count != wantCum[i] {
			t.Errorf("bucket %d: cumulative count = %d, want %d", i, bk.Count, wantCum[i])
		}
		if i > 0 && bk.UpperBound <= bks[i-1].UpperBound {
			t.Errorf("bucket %d: upper bound %v not ascending past %v", i, bk.UpperBound, bks[i-1].UpperBound)
		}
	}
	if last := bks[len(bks)-1].Count; last != h.Count() {
		t.Errorf("last cumulative count = %d, want total %d", last, h.Count())
	}
	// Every sample must sit at or below the bound of the bucket that counted
	// it: the bound for the first two samples must cover 5µs, etc.
	if bks[0].UpperBound < 5*time.Microsecond {
		t.Errorf("first bound %v below the 5µs samples it counts", bks[0].UpperBound)
	}
	if h.Sum() != 2090810*time.Microsecond {
		t.Errorf("Sum() = %v, want %v", h.Sum(), 2090810*time.Microsecond)
	}
}

func TestHistogramBucketsEmpty(t *testing.T) {
	if bks := NewHistogram().Buckets(); bks != nil {
		t.Fatalf("empty histogram Buckets() = %+v, want nil", bks)
	}
}

// TestHistogramBucketsWhileObserving races the cumulative exporter against
// hot-path observers: every export must be internally consistent — counts
// non-decreasing at ascending bounds — and the final quiesced export exact.
// Run with -race, this is also the Observe-during-export data-race check.
func TestHistogramBucketsWhileObserving(t *testing.T) {
	h := NewHistogram()
	const workers, perWorker = 4, 20000
	var writers sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(1+(i%1000)*(w+1)) * time.Microsecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			bks := h.Buckets()
			for i := 1; i < len(bks); i++ {
				if bks[i].Count < bks[i-1].Count {
					t.Errorf("cumulative count regressed inside one export: %d then %d", bks[i-1].Count, bks[i].Count)
					return
				}
				if bks[i].UpperBound <= bks[i-1].UpperBound {
					t.Errorf("upper bounds not ascending: %v then %v", bks[i-1].UpperBound, bks[i].UpperBound)
					return
				}
			}
		}
	}()
	close(start)
	writers.Wait()
	close(stop)
	reader.Wait()
	bks := h.Buckets()
	if len(bks) == 0 || bks[len(bks)-1].Count != workers*perWorker {
		t.Fatalf("quiesced export total = %+v, want %d", bks, workers*perWorker)
	}
}
