// Package metrics provides the measurement instruments for two of the
// paper's three evaluation metrics (§V-A): end-to-end latency (log-bucketed
// histogram with quantiles) and network bandwidth (byte counters feeding the
// Fig. 7 saving rate). The third, throughput, is a run's produced items over
// its elapsed span (core.LiveResult.Throughput).
//
// The instruments sit on the live tree's per-record hot path, so the write
// sides are lock-free: Histogram.Observe is atomic (per-bucket counters, CAS
// min/max), and BandwidthAccount hands hot-path writers private per-member
// counters (Counter) that the read side folds in. Readers (Snapshot,
// Quantile, Total, ...) may observe a sample mid-flight — e.g. a bucket
// incremented before its count — which is fine for telemetry: every accessor
// is eventually consistent and exact once writers quiesce.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// storeMax raises a to at least v (CAS loop; lock-free monotone max).
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// storeMin lowers a to at most v (CAS loop; lock-free monotone min).
func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a log-bucketed latency histogram: ~26 buckets per decade from
// 1µs up to >1000s, accurate to a few percent — plenty for p50/p95/p99 on
// simulated WAN latencies while using constant memory regardless of volume.
// Observe is atomic per bucket, so concurrent observers (root shard members)
// never serialize on a shared lock.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; math.MaxInt64 while empty
	max     atomic.Int64 // nanoseconds
}

const (
	histMin       = time.Microsecond
	histDecades   = 9 // 1µs .. 1000s and beyond
	perDecade     = 26
	histBuckets   = histDecades*perDecade + 1
	bucketLogBase = 10.0
)

func bucketIndex(d time.Duration) int {
	if d < histMin {
		return 0
	}
	idx := int(math.Log10(float64(d)/float64(histMin)) * perDecade)
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketValue returns the representative duration for bucket i (geometric
// midpoint of its bounds).
func bucketValue(i int) time.Duration {
	lo := float64(histMin) * math.Pow(bucketLogBase, float64(i)/perDecade)
	hi := float64(histMin) * math.Pow(bucketLogBase, float64(i+1)/perDecade)
	return time.Duration(math.Sqrt(lo * hi))
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n samples of the same latency d — the state n Observe(d)
// calls leave, for the price of one. The root feeds it runs of items that
// share a publish instant (every item of one Push does). n <= 0 is a no-op.
func (h *Histogram) ObserveN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(n)
	h.count.Add(n)
	h.sum.Add(n * int64(d))
	storeMin(&h.min, int64(d))
	storeMax(&h.max, int64(d))
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average latency (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	v := h.min.Load()
	if v == math.MaxInt64 {
		return 0
	}
	return time.Duration(v)
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Merge folds other's samples into h. Observers may keep writing to either
// side; the fold is eventually consistent and exact once writers quiesce
// (which is when the run merges per-member histograms into the result).
func (h *Histogram) Merge(other *Histogram) {
	if other.count.Load() == 0 {
		return
	}
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	storeMin(&h.min, other.min.Load())
	storeMax(&h.max, other.max.Load())
}

// Snapshot returns an independent copy of the histogram's current state.
// Observers can keep writing while the copy is taken, and the caller owns the
// copy outright — the instrument mid-run Snapshot telemetry hands out without
// freezing the hot path.
func (h *Histogram) Snapshot() *Histogram {
	out := NewHistogram()
	out.Merge(h)
	return out
}

// Sum returns the total of every observed sample.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistogramBucket is one cumulative bucket of an exported histogram: Count
// samples were observed at or below UpperBound. The shape Prometheus
// histogram exposition wants (`le` labels), before unit conversion.
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper bound.
	UpperBound time.Duration
	// Count is cumulative: every sample ≤ UpperBound, not just this
	// bucket's own.
	Count int64
}

// Buckets exports the distribution in cumulative form: ascending upper
// bounds, monotonically non-decreasing counts, with the last entry's Count
// equal to the total the export saw. Buckets that hold no samples are
// coalesced away, so the slice stays small no matter how wide the
// instrument's internal bucket array is; an empty histogram exports nil.
// Safe to call while observers keep writing — a sample landing mid-export
// may be missed by this call, but the returned slice is always internally
// consistent (counts are accumulated in one ascending sweep, never
// re-read), and exact once writers quiesce. Exporters deriving a +Inf
// bucket or a sample count should use the last entry's Count rather than
// Count(), which may have advanced since the sweep.
func (h *Histogram) Buckets() []HistogramBucket {
	var out []HistogramBucket
	var cum int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, HistogramBucket{UpperBound: bucketUpper(i), Count: cum})
	}
	return out
}

// bucketUpper returns bucket i's inclusive upper bound (the geometric grid
// edge above its representative value).
func bucketUpper(i int) time.Duration {
	return time.Duration(float64(histMin) * math.Pow(bucketLogBase, float64(i+1)/perDecade))
}

// Quantile returns the q-th quantile (0 < q <= 1) from the bucket bounds.
// Exact min/max are returned at the extremes.
func (h *Histogram) Quantile(q float64) time.Duration {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := int64(math.Ceil(q * float64(count)))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			v := bucketValue(i)
			if mn := h.Min(); v < mn {
				v = mn
			}
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.Max()
}

// String summarizes the distribution for logs and benches.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// BandwidthAccount accumulates bytes sent per named link and computes the
// paper's bandwidth-saving rate against a baseline account. Cold paths call
// Add directly (mutex + map); hot paths request a private Counter once and
// add to it lock-free — the read side folds registered counters in, so no
// shard member ever contends on the shared lock between window boundaries.
type BandwidthAccount struct {
	mu       sync.Mutex
	bytes    map[string]int64
	counters map[string][]*BandwidthCounter
}

// BandwidthCounter is one hot-path writer's private accumulator for a single
// link, registered in its account and folded into totals at read time. The
// padding keeps members on distinct cache lines (no false sharing between
// shard members counting in a tight loop).
type BandwidthCounter struct {
	n atomic.Int64
	_ [56]byte
}

// Add records n more bytes on the counter's link.
func (c *BandwidthCounter) Add(n int64) { c.n.Add(n) }

// NewBandwidthAccount returns an empty account.
func NewBandwidthAccount() *BandwidthAccount {
	return &BandwidthAccount{
		bytes:    make(map[string]int64),
		counters: make(map[string][]*BandwidthCounter),
	}
}

// Add records n bytes sent on the named link (cold-path form).
func (b *BandwidthAccount) Add(link string, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bytes[link] += n
}

// Counter registers and returns a private accumulator for the named link.
// Intended for per-member hot paths: each member holds its own counter, and
// reads (Total, Link, Snapshot) merge every registered counter on demand.
func (b *BandwidthAccount) Counter(link string) *BandwidthCounter {
	c := &BandwidthCounter{}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counters[link] = append(b.counters[link], c)
	return c
}

// linkLocked sums one link's cold-path bytes and registered counters.
// Callers hold b.mu.
func (b *BandwidthAccount) linkLocked(link string) int64 {
	n := b.bytes[link]
	for _, c := range b.counters[link] {
		n += c.n.Load()
	}
	return n
}

// Total returns bytes summed across all links.
func (b *BandwidthAccount) Total() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	for link := range b.bytes {
		total += b.linkLocked(link)
	}
	for link := range b.counters {
		if _, dup := b.bytes[link]; !dup {
			total += b.linkLocked(link)
		}
	}
	return total
}

// Link returns the bytes recorded for one link.
func (b *BandwidthAccount) Link(name string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.linkLocked(name)
}

// Snapshot returns a copy of the per-link byte counters at this instant,
// per-member counters folded in. Producers can keep adding while the copy is
// taken; the caller owns the returned map.
func (b *BandwidthAccount) Snapshot() map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64, len(b.bytes)+len(b.counters))
	for link := range b.bytes {
		out[link] = b.linkLocked(link)
	}
	for link := range b.counters {
		if _, dup := out[link]; !dup {
			out[link] = b.linkLocked(link)
		}
	}
	return out
}

// SavingRate returns the fraction of baseline bytes avoided:
// 1 − sampled/baseline (Fig. 7's y-axis, as a fraction). A zero baseline
// yields 0.
func SavingRate(sampled, baseline int64) float64 {
	if baseline <= 0 {
		return 0
	}
	s := 1 - float64(sampled)/float64(baseline)
	if s < 0 {
		return 0
	}
	return s
}
