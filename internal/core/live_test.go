package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
)

func liveConfig(items int64, fraction float64) LiveConfig {
	return LiveConfig{
		Spec:       topology.Testbed(),
		Source:     microSource(11, 1000),
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: fraction},
		Items:      items,
		Window:     30 * time.Millisecond,
		Queries:    []query.Kind{query.Sum, query.Count},
		Seed:       3,
	}
}

func TestLiveValidatesConfig(t *testing.T) {
	cfg := liveConfig(100, 0.5)
	cfg.Items = 0
	if _, err := RunLive(cfg); !errors.Is(err, ErrNoItems) {
		t.Fatalf("err = %v, want ErrNoItems", err)
	}
	cfg = liveConfig(100, 0.5)
	cfg.Source = nil
	if _, err := RunLive(cfg); !errors.Is(err, ErrNoSourceFunc) {
		t.Fatalf("err = %v, want ErrNoSourceFunc", err)
	}
}

func TestLivePipelineCountInvariant(t *testing.T) {
	res, err := RunLive(liveConfig(16000, 0.25))
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.Produced != 16000 {
		t.Fatalf("produced %d items, want 16000", res.Produced)
	}
	// Eq. 8 composed across the live pipeline: estimated input == produced.
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("estimated count %.1f vs produced %d (rel %.2e)", res.EstimateCount, res.Produced, rel)
	}
	// Sampling really happened: root saw roughly a quarter of the stream.
	ratio := float64(res.RootProcessed) / float64(res.Produced)
	if ratio < 0.15 || ratio > 0.4 {
		t.Fatalf("root processed ratio = %.2f, want ~0.25", ratio)
	}
}

func TestLiveSumEstimateNearTruth(t *testing.T) {
	res, err := RunLive(liveConfig(16000, 0.5))
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.TruthSum == 0 {
		t.Fatal("no ground truth accumulated")
	}
	loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum
	if loss > 0.05 {
		t.Fatalf("live accuracy loss = %.3f, want < 5%% at fraction 0.5", loss)
	}
}

func TestLiveNativePassthrough(t *testing.T) {
	cfg := liveConfig(8000, 1)
	cfg.NewSampler = NativeFactory()
	cfg.Cost = FractionBudget{Fraction: 1}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.RootProcessed != res.Produced {
		t.Fatalf("native root processed %d of %d", res.RootProcessed, res.Produced)
	}
	loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum
	if loss > 1e-9 {
		t.Fatalf("native loss = %g, want exact", loss)
	}
}

func TestLiveSRSStreaming(t *testing.T) {
	cfg := liveConfig(16000, 0.2)
	cfg.NewSampler = SRSFactory(0.2)
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	ratio := float64(res.RootProcessed) / float64(res.Produced)
	if ratio < 0.1 || ratio > 0.35 {
		t.Fatalf("SRS root ratio = %.2f, want ~0.2", ratio)
	}
	loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum
	if loss > 0.2 {
		t.Fatalf("SRS loss = %.3f, implausibly bad on balanced Gaussian", loss)
	}
}

func TestLivePartitionedMatchesSingleShard(t *testing.T) {
	// Partitioned execution must not change what the pipeline estimates:
	// with the same seed, a 4-shard root over 4-partition topics produces
	// the same window-estimate totals as a single root consumer — the count
	// estimate is exactly the produced count in both (Eq. 8 composes across
	// shards because shard outputs merge as weighted batches), and the sum
	// estimate stays near the (identical) ground truth.
	run := func(shards int) *LiveResult {
		cfg := liveConfig(16000, 0.5)
		cfg.Partitions = 4
		cfg.RootShards = shards
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("RunLive(shards=%d): %v", shards, err)
		}
		return res
	}
	single := run(1)
	sharded := run(4)

	if single.Produced != sharded.Produced {
		t.Fatalf("produced %d vs %d, want identical under same seed", single.Produced, sharded.Produced)
	}
	if rel := math.Abs(single.TruthSum-sharded.TruthSum) / math.Abs(single.TruthSum); rel > 1e-9 {
		t.Fatalf("truth diverged between runs: %g vs %g", single.TruthSum, sharded.TruthSum)
	}
	for name, res := range map[string]*LiveResult{"single": single, "sharded": sharded} {
		if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
			t.Fatalf("%s: estimated count %.1f vs produced %d", name, res.EstimateCount, res.Produced)
		}
		if loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum; loss > 0.05 {
			t.Fatalf("%s: accuracy loss %.3f, want < 5%% at fraction 0.5", name, loss)
		}
	}
	// The exact-count invariant makes the two runs' estimate totals equal.
	if rel := math.Abs(single.EstimateCount-sharded.EstimateCount) / single.EstimateCount; rel > 1e-9 {
		t.Fatalf("count estimates diverged: %.1f vs %.1f", single.EstimateCount, sharded.EstimateCount)
	}
}

func TestLiveShardsRequirePartitions(t *testing.T) {
	cfg := liveConfig(100, 0.5)
	cfg.Partitions = 2
	cfg.RootShards = 4
	if _, err := RunLive(cfg); !errors.Is(err, ErrShardsExceedPartitions) {
		t.Fatalf("err = %v, want ErrShardsExceedPartitions", err)
	}
	cfg = liveConfig(100, 0.5)
	cfg.Partitions = 2
	cfg.LayerShards = []int{1, 4}
	if _, err := RunLive(cfg); !errors.Is(err, ErrShardsExceedPartitions) {
		t.Fatalf("layer err = %v, want ErrShardsExceedPartitions", err)
	}
	cfg = liveConfig(100, 0.5)
	cfg.Partitions = 4
	cfg.LayerShards = []int{1, 1, 2} // testbed has 2 edge layers; index 2 is the root
	if _, err := RunLive(cfg); !errors.Is(err, ErrLayerShardsRoot) {
		t.Fatalf("root-entry err = %v, want ErrLayerShardsRoot", err)
	}
}

func TestLiveProducedMatchesItemsWithRemainder(t *testing.T) {
	// 16001 does not divide across the testbed's 8 sources; the remainder
	// must be produced, not silently dropped (the old per-source integer
	// division lost Items % Sources items every uneven run).
	res, err := RunLive(liveConfig(16001, 0.25))
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.Produced != 16001 {
		t.Fatalf("produced %d items, want exactly 16001", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("estimated count %.1f vs produced %d (rel %.2e)", res.EstimateCount, res.Produced, rel)
	}
}

func TestLiveLayerShardedMatchesSingleShard(t *testing.T) {
	// Sharding every edge layer must not change what the pipeline
	// estimates: each group member samples the partitions it owns and
	// forwards weighted batches, so the count estimate composes exactly at
	// any {LayerShards, RootShards} combination (no merge barrier needed).
	run := func(layerShards []int, rootShards int) *LiveResult {
		cfg := liveConfig(16000, 0.5)
		cfg.Partitions = 4
		cfg.RootShards = rootShards
		cfg.LayerShards = layerShards
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("RunLive(layers=%v, root=%d): %v", layerShards, rootShards, err)
		}
		return res
	}
	single := run(nil, 1)
	sharded := run([]int{4, 2}, 4) // every interior layer scaled out

	if single.Produced != sharded.Produced {
		t.Fatalf("produced %d vs %d, want identical under same seed", single.Produced, sharded.Produced)
	}
	for name, res := range map[string]*LiveResult{"single": single, "layer-sharded": sharded} {
		if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
			t.Fatalf("%s: estimated count %.1f vs produced %d", name, res.EstimateCount, res.Produced)
		}
		if loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum; loss > 0.05 {
			t.Fatalf("%s: accuracy loss %.3f, want < 5%% at fraction 0.5", name, loss)
		}
		if res.DecodeErrors != 0 {
			t.Fatalf("%s: %d decode errors on a clean run", name, res.DecodeErrors)
		}
	}
	if rel := math.Abs(single.EstimateCount-sharded.EstimateCount) / single.EstimateCount; rel > 1e-9 {
		t.Fatalf("count estimates diverged: %.1f vs %.1f", single.EstimateCount, sharded.EstimateCount)
	}
}

func TestLiveLayerShardedNativeExact(t *testing.T) {
	// Native passthrough with every layer sharded: each produced item
	// traverses every consumer group exactly once — no loss, no
	// duplication — and the estimate stays exact.
	cfg := liveConfig(8000, 1)
	cfg.NewSampler = NativeFactory()
	cfg.Cost = FractionBudget{Fraction: 1}
	cfg.Partitions = 4
	cfg.LayerShards = []int{3, 2} // deliberately not dividing 4 evenly
	cfg.RootShards = 3
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.RootProcessed != res.Produced {
		t.Fatalf("layer-sharded native root processed %d of %d", res.RootProcessed, res.Produced)
	}
	loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum
	if loss > 1e-9 {
		t.Fatalf("layer-sharded native loss = %g, want exact", loss)
	}
}

func TestLiveDecodeErrorsCounted(t *testing.T) {
	// Corrupt records must be counted and skipped, not silently swallowed
	// (the old root loop `continue`d past them) and not allowed to kill
	// the pipeline.
	cfg := liveConfig(8000, 0.5)
	cfg.Partitions = 2
	cfg.RootShards = 2
	cfg.corruptRoot = 3
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.DecodeErrors != 3 {
		t.Fatalf("DecodeErrors = %d, want 3", res.DecodeErrors)
	}
	// The healthy records still flow: the count invariant is untouched.
	if res.Produced != 8000 {
		t.Fatalf("produced %d, want 8000", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("estimated count %.1f vs produced %d after corrupt records", res.EstimateCount, res.Produced)
	}
}

func TestSamplingProcessorCountsDecodeErrors(t *testing.T) {
	// The edge layers run the same policy as the root: a record that fails
	// to decode increments the shared counter and is skipped without
	// failing the member's runtime.
	var errs atomic.Int64
	p := &samplingProcessor{
		ew: newEventWindows(time.Second, 0, new(lateCounter), func() *Node {
			return NewNode("edge-test", WHSFactory()(0, 0, 1), EffectiveFractionBudget{Fraction: 0.5})
		}),
		decodeErrs: &errs,
		ctx:        &hopCtx{now: simEpoch}, // the member's clock
	}
	if err := p.ProcessBatch([]streams.Message{{Value: []byte{0xFF, 0xBA, 0xD0}}}); err != nil {
		t.Fatalf("corrupt record errored the processor: %v", err)
	}
	if errs.Load() != 1 {
		t.Fatalf("decode errors = %d, want 1", errs.Load())
	}
	if p.ew.buffered() != 0 {
		t.Fatalf("corrupt record ingested %d items", p.ew.buffered())
	}
}

func TestLivePartitionedNativeExact(t *testing.T) {
	// Native passthrough over a partitioned pipeline: every produced item
	// reaches some shard exactly once (no loss, no duplication across the
	// consumer group) and the merged estimate is exact.
	cfg := liveConfig(8000, 1)
	cfg.NewSampler = NativeFactory()
	cfg.Cost = FractionBudget{Fraction: 1}
	cfg.Partitions = 4
	cfg.RootShards = 3 // deliberately not dividing 4 evenly
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if res.RootProcessed != res.Produced {
		t.Fatalf("sharded native root processed %d of %d", res.RootProcessed, res.Produced)
	}
	loss := math.Abs(res.EstimateSum-res.TruthSum) / res.TruthSum
	if loss > 1e-9 {
		t.Fatalf("sharded native loss = %g, want exact", loss)
	}
}

// BenchmarkLiveRootShards measures end-to-end live throughput as the root
// consumer group scales: multi-partition topics with a sharded root must
// sustain at least single-partition throughput (and scale with cores when
// RootWork dominates, since shards spin in parallel).
func BenchmarkLiveRootShards(b *testing.B) {
	items := int64(24000)
	if v := os.Getenv("APPROXIOT_BENCH_ITEMS"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			items = n
		}
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var throughput float64
			for i := 0; i < b.N; i++ {
				cfg := liveConfig(items, 0.25)
				cfg.RootWork = 5 * time.Microsecond
				cfg.Partitions = shards
				cfg.RootShards = shards
				res, err := RunLive(cfg)
				if err != nil {
					b.Fatal(err)
				}
				throughput += res.Throughput
			}
			b.ReportMetric(throughput/float64(b.N), "items/s")
		})
	}
}

func TestLiveThroughputImprovesWithSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throughput comparison")
	}
	run := func(fraction float64) float64 {
		cfg := liveConfig(30000, fraction)
		cfg.RootWork = 20 * time.Microsecond // saturate the datacenter
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		return res.Throughput
	}
	sampled := run(0.1)
	native := func() float64 {
		cfg := liveConfig(30000, 1)
		cfg.NewSampler = NativeFactory()
		cfg.Cost = FractionBudget{Fraction: 1}
		cfg.RootWork = 20 * time.Microsecond
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		return res.Throughput
	}()
	if sampled < 1.5*native {
		t.Fatalf("10%% sampling throughput %.0f not well above native %.0f", sampled, native)
	}
}

// TestIngestStampedNeverLate pins the ingest-stamped contract on a sharded
// tree: four pushers drive every slot for a few dozen windows while one slot
// pauses for three idle timeouts and then resumes. Nothing may be dropped
// late, the census count must be exact, and every window must be one Window
// of ingest time.
func TestIngestStampedNeverLate(t *testing.T) {
	cfg := liveConfig(0, 1)
	cfg.Window = 20 * time.Millisecond
	cfg.Partitions = 4
	cfg.RootShards = 2
	cfg.LayerShards = []int{2, 2}
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	idle := s.cfg.IdleTimeout
	// Ten windows, the pause, ten windows more.
	runFor := 20*cfg.Window + 3*idle
	pauseAt, resumeAt := 10*cfg.Window, 10*cfg.Window+3*idle
	start := time.Now()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for k := 0; time.Since(start) < runFor; k++ {
				for _, slot := range []int{2 * g, 2*g + 1} {
					if since := time.Since(start); slot == 0 && since >= pauseAt && since < resumeAt {
						continue
					}
					ing, err := s.Ingester(slot)
					if err == nil {
						err = ing.Push(stream.Item{Source: stream.SourceID(fmt.Sprintf("s%d", slot)), Value: float64(k)},
							stream.Item{Source: stream.SourceID(fmt.Sprintf("s%d", slot)), Value: 0.5})
					}
					if err != nil {
						errs <- err
						return
					}
				}
				time.Sleep(cfg.Window / 4)
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.LateDropped != 0 || res.LateDroppedInput != 0 {
		t.Fatalf("dropped %d ingest-stamped items late", res.LateDropped)
	}
	assertCountInvariant(t, "ingest-stamped census", res.EstimateCount, float64(res.Produced))
	if len(res.Windows) < 10 {
		t.Fatalf("closed %d windows, want at least 10", len(res.Windows))
	}
	for i, w := range res.Windows {
		if w.Start.IsZero() || w.End.Sub(w.Start) != cfg.Window {
			t.Fatalf("window %d spans [%v, %v), want one %v window", i, w.Start, w.End, cfg.Window)
		}
	}
}
