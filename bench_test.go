// Live throughput benchmarks: each runs the live tree in one shape and
// reports what that shape costs. The paper's figures are regenerated by
// cmd/approxbench (-fig all; -full for paper-scale runs), whose shapes
// internal/bench's TestFig*Shape tests pin.
package approxiot_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/approxiot/approxiot"
	"github.com/approxiot/approxiot/internal/workload"
)

// benchItems returns the per-iteration item count for the live throughput
// benchmarks: def by default, overridable with APPROXIOT_BENCH_ITEMS for
// longer runs where the fixed ~2-3 window drain tail should be amortized
// away (see EXPERIMENTS.md).
func benchItems(def int64) int64 {
	if v := os.Getenv("APPROXIOT_BENCH_ITEMS"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// BenchmarkLiveAdaptive measures what the §IV-B control plane costs on the
// live tree: the same fully-sharded deployment once with a frozen 25%
// fraction and once with a FeedbackController steering toward a 2% error
// target (unpaced — throughput is the point here, so no SourceRate). The
// adaptive run's extra work is one Observe per window, one control record
// published, and one control-topic drain per member per window; throughput
// should be within noise of the frozen run.
func BenchmarkLiveAdaptive(b *testing.B) {
	source := func(i int) approxiot.Source {
		return workload.GaussianMicro(7+uint64(i)*131, 1500)
	}
	run := func(b *testing.B, adaptive bool) {
		b.ReportAllocs()
		items := benchItems(48000)
		var throughput float64
		for i := 0; i < b.N; i++ {
			cfg := approxiot.Config{
				Fraction:    0.25,
				Queries:     []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
				Partitions:  8,
				RootShards:  4,
				LayerShards: 4,
				Seed:        7,
			}
			if adaptive {
				cfg.Adaptive = approxiot.NewFeedbackController(0.25, 0.02)
			}
			res, err := approxiot.Run(cfg, source, items)
			if err != nil {
				b.Fatal(err)
			}
			throughput += res.Throughput
		}
		b.ReportMetric(throughput/float64(b.N), "items/s")
	}
	b.Run("frozen", func(b *testing.B) { run(b, false) })
	b.Run("adaptive", func(b *testing.B) { run(b, true) })
}

// BenchmarkLiveLayerShards measures end-to-end live throughput as every
// tier of the tree scales out: shards×-member consumer groups at each edge
// layer plus a shards×-member root group over 8-partition topics. On a
// multi-core runner throughput grows with the shard count because every
// node's sampling work — not just the root's — spreads across members.
func BenchmarkLiveLayerShards(b *testing.B) {
	source := func(i int) approxiot.Source {
		return workload.GaussianMicro(7+uint64(i)*131, 1500)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			items := benchItems(48000)
			var throughput float64
			for i := 0; i < b.N; i++ {
				res, err := approxiot.Run(approxiot.Config{
					Fraction:    0.25,
					Queries:     []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
					Partitions:  8,
					RootShards:  shards,
					LayerShards: shards,
					Seed:        7,
				}, source, items)
				if err != nil {
					b.Fatal(err)
				}
				throughput += res.Throughput
			}
			b.ReportMetric(throughput/float64(b.N), "items/s")
		})
	}
}

// BenchmarkLiveEventTime prices caller timestamps against ingest stamps on
// the same single-member deployment: both run the event-time machinery
// (window assignment by timestamp, per-chain watermark tracking, the
// heartbeat ladder). Generator timestamps advance with the feed, so
// watermarks progress and windows close in-band, not just at the
// end-of-stream sweep. The two rows are an end-to-end cost comparison, not
// like-for-like windows: the caller-stamped run closes 1 s event windows
// driven by the generator's virtual timeline, the ingest-stamped run 50 ms
// windows of publish instants, so window counts (and with them per-window
// overheads) differ by design.
func BenchmarkLiveEventTime(b *testing.B) {
	source := func(i int) approxiot.Source {
		return workload.GaussianMicro(7+uint64(i)*131, 1500)
	}
	run := func(b *testing.B, eventTime bool) {
		b.ReportAllocs()
		items := benchItems(48000)
		var throughput float64
		for i := 0; i < b.N; i++ {
			cfg := approxiot.Config{
				Fraction: 0.25,
				Queries:  []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
				Seed:     7,
			}
			if eventTime {
				cfg.EventTime = true
				cfg.AllowedLateness = 500 * time.Millisecond
			}
			res, err := approxiot.Run(cfg, source, items)
			if err != nil {
				b.Fatal(err)
			}
			throughput += res.Throughput
		}
		b.ReportMetric(throughput/float64(b.N), "items/s")
	}
	b.Run("ingest-stamped", func(b *testing.B) { run(b, false) })
	b.Run("event-time", func(b *testing.B) { run(b, true) })
}

// BenchmarkLiveSliding prices pane composition (Config.Slide) on the live
// tree: the same event-time deployment once with plain tumbling windows and
// once additionally composing a 4-pane sliding estimate at every root window
// close. Sliding work is O(slide) per window at the root only — never on the
// per-record path — so throughput should stay within noise of tumbling.
func BenchmarkLiveSliding(b *testing.B) {
	source := func(i int) approxiot.Source {
		return workload.GaussianMicro(7+uint64(i)*131, 1500)
	}
	run := func(b *testing.B, slide int) {
		b.ReportAllocs()
		items := benchItems(48000)
		var throughput float64
		for i := 0; i < b.N; i++ {
			res, err := approxiot.Run(approxiot.Config{
				Fraction:        0.25,
				Queries:         []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
				Slide:           slide,
				EventTime:       true,
				AllowedLateness: 500 * time.Millisecond,
				Seed:            7,
			}, source, items)
			if err != nil {
				b.Fatal(err)
			}
			throughput += res.Throughput
		}
		b.ReportMetric(throughput/float64(b.N), "items/s")
	}
	b.Run("tumbling", func(b *testing.B) { run(b, 0) })
	b.Run("slide=4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkLiveTopK prices the extended query kinds against the linear
// ones: the same sharded deployment answering SUM+COUNT only, versus
// additionally ranking the top-8 strata and estimating the p90 per window.
// Both extensions execute at root window close over the merged reservoir
// (top-k sorts strata, the quantile sorts sampled items), so the per-record
// hot path — sampling, batching, merging — is untouched and the rows should
// differ only by the per-window post-processing.
func BenchmarkLiveTopK(b *testing.B) {
	source := func(i int) approxiot.Source {
		return workload.GaussianMicro(7+uint64(i)*131, 1500)
	}
	run := func(b *testing.B, extended bool) {
		b.ReportAllocs()
		items := benchItems(48000)
		var throughput float64
		for i := 0; i < b.N; i++ {
			queries := []approxiot.QueryKind{approxiot.Sum, approxiot.Count}
			if extended {
				queries = append(queries, approxiot.TopKOf(8), approxiot.QuantileOf(0.9))
			}
			res, err := approxiot.Run(approxiot.Config{
				Fraction:    0.25,
				Queries:     queries,
				Partitions:  8,
				RootShards:  4,
				LayerShards: 4,
				Seed:        7,
			}, source, items)
			if err != nil {
				b.Fatal(err)
			}
			throughput += res.Throughput
		}
		b.ReportMetric(throughput/float64(b.N), "items/s")
	}
	b.Run("linear", func(b *testing.B) { run(b, false) })
	b.Run("topk+quantile", func(b *testing.B) { run(b, true) })
}

// BenchmarkLiveOpsSurface prices the operational surface: the same pushed
// deployment with and without Config.OpsAddr. The ops sampler polls
// Snapshot once a second off the hot path, so the two rows should differ
// only by run-to-run noise — this benchmark is the receipt for that claim
// (EXPERIMENTS.md records the numbers).
func BenchmarkLiveOpsSurface(b *testing.B) {
	run := func(b *testing.B, ops bool) {
		b.ReportAllocs()
		items := benchItems(48000)
		var throughput float64
		for i := 0; i < b.N; i++ {
			cfg := approxiot.Config{
				Fraction: 0.25,
				Queries:  []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
				Seed:     7,
			}
			if ops {
				cfg.OpsAddr = "127.0.0.1:0"
			}
			d, err := approxiot.Open(nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Generator-fed pushes through the public valves, every slot
			// concurrently — the same feed shape Run uses.
			tree := cfg.Tree
			if tree.Sources == 0 {
				tree = approxiot.Testbed()
			}
			perSlot := items / int64(tree.Sources)
			var wg sync.WaitGroup
			for slot := 0; slot < tree.Sources; slot++ {
				ing, err := d.Ingester(slot)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(slot int, ing *approxiot.Ingester) {
					defer wg.Done()
					gen := workload.GaussianMicro(7+uint64(slot)*131, 1500)
					now := time.Now()
					var sent int64
					for sent < perSlot {
						batch := gen.Generate(now, 12*time.Millisecond)
						now = now.Add(12 * time.Millisecond)
						if len(batch) == 0 {
							continue
						}
						if int64(len(batch)) > perSlot-sent {
							batch = batch[:perSlot-sent]
						}
						if err := ing.Push(batch...); err != nil {
							return
						}
						sent += int64(len(batch))
					}
				}(slot, ing)
			}
			wg.Wait()
			res, err := d.Close()
			if err != nil {
				b.Fatal(err)
			}
			throughput += res.Throughput
		}
		b.ReportMetric(throughput/float64(b.N), "items/s")
	}
	b.Run("no-ops", func(b *testing.B) { run(b, false) })
	b.Run("ops", func(b *testing.B) { run(b, true) })
}
