package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
)

// Tests for the Ψ-storage ownership rules: slabs are drawn by needed length,
// go back only once a closed window's Θ is dead, and a window's encoded
// bytes and results are what they would have been had nothing been reused.

func TestSlabStoreServesByNeededLength(t *testing.T) {
	var s slabStore
	for _, n := range []int{0, 1, 8, 9, 16, 17, 2048, 2049} {
		slab := s.get(n)
		if len(slab) != 0 || cap(slab) < n || cap(slab)&(cap(slab)-1) != 0 {
			t.Fatalf("get(%d) = len %d cap %d, want an empty power-of-two slab that holds it", n, len(slab), cap(slab))
		}
		if n > 8 && cap(slab) >= 2*n {
			t.Fatalf("get(%d) over-provisioned cap %d", n, cap(slab))
		}
	}
	// A returned slab serves the next request of its class — and only of
	// its class: first-come order must not decide what a lineage gets.
	big, small := s.get(2048), s.get(16)
	big = append(big, make([]stream.Item, 100)...)
	s.put(small)
	s.put(big)
	if got := s.get(9); cap(got) != 16 || &got[:1][0] != &small[:1][0] {
		t.Fatalf("get(9) after put(16-slab, 2048-slab) = cap %d, want the 16-slab back", cap(got))
	}
	if got := s.get(1025); len(got) != 0 || &got[:1][0] != &big[0] {
		t.Fatalf("get(1025) = len %d cap %d, want the emptied 2048-slab back", len(got), cap(got))
	}
	if s.retained != 0 {
		t.Fatalf("retained %d after draining the store", s.retained)
	}
	// The retention bound: idle capacity past it goes to the GC.
	for i := 0; i < 2*slabRetainItems/4096; i++ {
		s.put(make([]stream.Item, 0, 4096))
	}
	if s.retained != slabRetainItems {
		t.Fatalf("retained %d items, want the bound %d", s.retained, slabRetainItems)
	}
	// A nil store — a node nobody recycles for — just allocates and drops.
	var none *slabStore
	if slab := none.get(100); cap(slab) != 128 {
		t.Fatalf("nil store get(100) cap %d", cap(slab))
	}
	none.put(make([]stream.Item, 0, 128))
}

// hopCtx is the downstream side of one member under test: it keeps a copy
// of each forwarded record's Key/Value bytes taken at forward time, as the
// broker does at append — the member reuses its encode block at the next
// flush.
type hopCtx struct {
	now      time.Time
	retained []streams.Message
}

func (c *hopCtx) Forward(m streams.Message) { c.ForwardBatch([]streams.Message{m}) }
func (c *hopCtx) ForwardBatch(msgs []streams.Message) {
	for _, m := range msgs {
		m.Key, m.Value = bytes.Clone(m.Key), bytes.Clone(m.Value)
		c.retained = append(c.retained, m)
	}
}
func (c *hopCtx) Now() time.Time { return c.now }

const (
	hopSources   = 3
	hopPerWindow = 300 // items per source per window: grows 8 → 512 through six classes
	hopPushes    = 4   // records per source per window
)

var hopWindow = time.Second

func hopMember(fraction float64) (*samplingProcessor, *hopCtx) {
	var errs atomic.Int64
	var late lateCounter
	var quiesce atomic.Bool
	mk := func() *Node {
		return NewNode("edge", WHSFactory()(0, 0, 7), EffectiveFractionBudget{Fraction: fraction})
	}
	p := &samplingProcessor{
		id:         "edge#0",
		decodeErrs: &errs,
		quiesce:    &quiesce,
		bwc:        &metrics.BandwidthCounter{},
		ew:         newEventWindows(hopWindow, 0, &late, mk),
	}
	p.wt = newWatermarkTracker(-1, p.ew.strata)
	ctx := &hopCtx{now: simEpoch}
	p.ctx = ctx
	return p, ctx
}

// hopBatches is one window's input at a leaf: hopPushes weight-1 batches per
// source, in-order event timestamps inside window w, values that differ per
// window so a stale slab entry can never pass for a fresh one.
func hopBatches(w int) []stream.Batch { return hopBatchesOf(w, hopPerWindow) }

// hopBatchesOf is hopBatches with perWindow items per source.
func hopBatchesOf(w, perWindow int) []stream.Batch {
	var out []stream.Batch
	per := perWindow / hopPushes
	for push := 0; push < hopPushes; push++ {
		for s := 0; s < hopSources; s++ {
			src := stream.SourceID(fmt.Sprintf("src%d", s))
			b := stream.Batch{Source: src, Weight: 1, Items: make([]stream.Item, per)}
			for i := range b.Items {
				k := push*per + i
				b.Items[i] = stream.Item{
					Source: src,
					Value:  float64(w*1_000_000 + s*10_000 + k),
					Ts:     simEpoch.Add(time.Duration(w)*hopWindow + time.Duration(k)*hopWindow/time.Duration(perWindow)).UTC(),
				}
			}
			out = append(out, b)
		}
	}
	return out
}

// hopMessages encodes a window's batches as the records a valve would have
// published: each stamped with its sub-stream's watermark.
func hopMessages(batches []stream.Batch) []streams.Message {
	msgs := make([]streams.Message, len(batches))
	for i, b := range batches {
		msgs[i] = streams.Message{
			Key:       []byte(b.Source),
			Value:     b.Marshal(),
			Watermark: mq.Watermark{From: "valve", At: b.Items[len(b.Items)-1].Ts},
		}
	}
	return msgs
}

// An edge member's forwarded windows must be byte-for-byte what a member
// that never reuses storage forwards: window w's Θ is computed by a
// throw-away node over the same input, and compared with what the member —
// whose slabs have by then served many later windows — actually sent.
func TestEdgeRecyclingKeepsEncodedWindows(t *testing.T) {
	for _, fraction := range []float64{1, 0.25} {
		t.Run(fmt.Sprintf("fraction=%g", fraction), func(t *testing.T) {
			const windows = 24
			p, ctx := hopMember(fraction)
			for w := 0; w < windows; w++ {
				if err := p.ProcessBatch(hopMessages(hopBatches(w))); err != nil {
					t.Fatal(err)
				}
			}
			p.drainAll(simEpoch)

			// Decode what was sent, per window, heartbeats aside.
			sent := make(map[int][][]byte)
			for _, m := range ctx.retained {
				b, err := stream.UnmarshalBatch(m.Value)
				if err != nil {
					t.Fatalf("forwarded record does not decode: %v", err)
				}
				if len(b.Items) == 0 {
					continue
				}
				w := int(b.Items[0].Ts.Sub(simEpoch) / hopWindow)
				sent[w] = append(sent[w], m.Value)
			}
			if len(sent) != windows {
				t.Fatalf("forwarded %d windows, want %d", len(sent), windows)
			}
			for w := 0; w < windows; w++ {
				ref := NewNode("edge", WHSFactory()(0, 0, 7), EffectiveFractionBudget{Fraction: fraction})
				for _, b := range hopBatches(w) {
					ref.IngestBatch(b)
				}
				want := ref.CloseInterval()
				if len(want) != len(sent[w]) {
					t.Fatalf("window %d: forwarded %d batches, reference %d", w, len(sent[w]), len(want))
				}
				for i, b := range want {
					if !bytes.Equal(sent[w][i], b.Marshal()) {
						t.Fatalf("window %d batch %d (%s): forwarded bytes differ from a never-recycled node's", w, i, b.Source)
					}
				}
			}
			if p.ew.slabs.retained == 0 {
				t.Fatal("no storage came back to the member's store")
			}
			// Two windows are open at most (lateness 0), so reuse keeps the
			// store far below what 24 windows ingested.
			if max := 4 * hopSources * 512; p.ew.slabs.retained > max {
				t.Fatalf("store retains %d items of capacity, want at most %d: slabs are not being reused", p.ew.slabs.retained, max)
			}
		})
	}
}

// Nodes rebuilt from a checkpoint draw from — and give back to — the
// member's one store, like the nodes ingest creates.
func TestCheckpointRestoredWindowsShareTheStore(t *testing.T) {
	p, _ := hopMember(1)
	ck := &memberCkpt{}
	for w := 0; w < 2; w++ {
		ck.windows = append(ck.windows, ckptWindow{
			start: simEpoch.Add(time.Duration(w) * hopWindow).UnixNano(),
			psi:   hopBatches(w),
		})
	}
	p.restoreCheckpoint(ck, simEpoch)
	for start, n := range p.ew.open {
		if n.slabs != &p.ew.slabs {
			t.Fatalf("restored window %d has its own store", start)
		}
	}
	if got := p.ew.buffered(); got != 2*hopSources*hopPerWindow {
		t.Fatalf("restored %d items, want %d", got, 2*hopSources*hopPerWindow)
	}
	p.drainAll(simEpoch)
	if p.ew.slabs.retained < 2*hopSources*hopPerWindow {
		t.Fatalf("store holds %d items of capacity after the restored windows closed", p.ew.slabs.retained)
	}
}

// hopWire is the upstream side of hopCycle: it re-stamps the window-0
// payloads for window w and re-encodes them into a buffer it reuses, standing
// in for the valve whose records a hop receives.
type hopWire struct {
	batch stream.Batch
	buf   []byte
}

func (hw *hopWire) record(payload []byte, shift time.Duration) []byte {
	if err := stream.UnmarshalBatchInto(&hw.batch, payload); err != nil {
		panic(err)
	}
	for i := range hw.batch.Items { // the same window shape, one window later
		hw.batch.Items[i].Ts = hw.batch.Items[i].Ts.Add(shift)
	}
	hw.buf = hw.batch.AppendMarshal(hw.buf[:0])
	return hw.buf
}

// hopCycle is one steady-state window of an edge hop, from the layers' own
// functions: ParseHeader → eventWindows.ingestWire → advance → encode →
// recycle. It returns the size of the block the flush encodes into — the
// encoder's own, reused by every flush.
func hopCycle(ew *eventWindows, enc *batchEncoder, hw *hopWire, names *stream.SourceTable, recs []mq.Record, w int, payloads [][]byte) int {
	shift := time.Duration(w) * hopWindow
	for _, payload := range payloads {
		h, err := stream.ParseHeader(hw.record(payload, shift), names)
		if err != nil {
			panic(err)
		}
		ew.ingestWire(h)
	}
	closed := ew.advance(simEpoch.Add(shift + hopWindow))
	for _, cw := range closed {
		for _, b := range cw.theta {
			enc.add(b, mq.Watermark{})
		}
	}
	block := enc.size
	recs = enc.records(recs[:0])
	enc.reset()
	ew.recycle(closed)
	if len(closed) != 1 || len(recs) != hopSources {
		panic(fmt.Sprintf("window %d: closed %d windows into %d records", w, len(closed), len(recs)))
	}
	return block
}

func hopCycleFixture(perWindow int) (*eventWindows, [][]byte) {
	var late lateCounter
	ew := newEventWindows(hopWindow, 0, &late, func() *Node {
		return NewNode("edge", WHSFactory()(0, 0, 7), EffectiveFractionBudget{Fraction: 1})
	})
	var payloads [][]byte
	for _, b := range hopBatchesOf(0, perWindow) {
		payloads = append(payloads, b.Marshal())
	}
	return ew, payloads
}

// In steady state a hop allocates a fixed handful of small objects (the
// window's node, its generator and its sampler's scratch are reopened, not
// rebuilt; the encoder reuses its block) — nothing that grows with the
// items. Two window shapes, one sixteen times the other, must therefore cost
// the same number of allocations, and the bytes must stay far below the
// 56 B an item's storage would cost.
func TestHopSteadyStateAllocatesNoItemStorage(t *testing.T) {
	measure := func(scale int) (allocs float64, bytesPerCycle, items int) {
		ew, payloads := hopCycleFixture(scale * hopPerWindow)
		var (
			enc   batchEncoder
			hw    hopWire
			names = ew.strata
			recs  = make([]mq.Record, 0, hopSources)
			w     int
		)
		cycle := func() {
			hopCycle(ew, &enc, &hw, names, recs, w, payloads)
			w++
		}
		for i := 0; i < 4; i++ {
			cycle() // warm the store: every class the shape needs
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, cycle) // runs + 1 cycles: one warm-up call
		runtime.ReadMemStats(&after)
		return allocs, int(after.TotalAlloc-before.TotalAlloc) / (runs + 1), scale * hopSources * hopPerWindow
	}
	smallAllocs, _, _ := measure(1)
	bigAllocs, bigBytes, items := measure(16)
	if smallAllocs != bigAllocs {
		t.Fatalf("allocations per window grow with the window: %.0f for one shape, %.0f for sixteen times the items", smallAllocs, bigAllocs)
	}
	if bigBytes > items*56/20 {
		t.Fatalf("a %d-item window allocates %d B: item storage is back (it would be %d B)", items, bigBytes, items*56)
	}
	t.Logf("%d-item window: %.0f allocs, %d B/cycle", items, bigAllocs, bigBytes)
}

// BenchmarkHopSteadyState is hopCycle under the benchmark harness; CI's
// bench-smoke job fails it above a B/op ceiling, not on time.
func BenchmarkHopSteadyState(b *testing.B) {
	ew, payloads := hopCycleFixture(2048) // the closed-loop workloads' items per slot per window
	var (
		enc   batchEncoder
		hw    hopWire
		names = ew.strata
		recs  = make([]mq.Record, 0, hopSources)
		wire  int
	)
	for _, p := range payloads {
		wire += len(p)
	}
	w := 0
	for ; w < 4; w++ {
		hopCycle(ew, &enc, &hw, names, recs, w, payloads)
	}
	b.ReportAllocs()
	b.SetBytes(int64(wire))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hopCycle(ew, &enc, &hw, names, recs, w, payloads)
		w++
	}
}

// progressiveRun feeds `windows` event windows of in-order items through
// push, keeping the source at most progLead windows ahead of the root's
// closes: the root evaluates window w while windows w+1.. are arriving —
// into the very storage earlier windows gave back — and no tier ever holds
// more than a few windows, so recycled slabs are back in use at once.
func progressiveRun(t *testing.T, windows, slots, perSlot int, window time.Duration,
	push func(slot int, items []stream.Item) error, closed func() int) (sums []float64) {
	t.Helper()
	sums = make([]float64, windows)
	for w := 0; w < windows; w++ {
		for slot := 0; slot < slots; slot++ {
			items := make([]stream.Item, perSlot)
			for k := range items {
				v := float64(w*1000+slot*10) + 0.25*float64(k%13)
				items[k] = stream.Item{
					Source: stream.SourceID(fmt.Sprintf("s%d", slot)),
					Value:  v,
					Ts:     simEpoch.Add(time.Duration(w)*window + time.Duration(k)*window/time.Duration(perSlot)),
				}
				sums[w] += v
			}
			if err := push(slot, items); err != nil {
				t.Fatalf("push window %d slot %d: %v", w, slot, err)
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for closed() < w-progLead {
			if time.Now().After(deadline) {
				t.Fatalf("window %d never closed at the root (%d closed)", w-progLead-1, closed())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return sums
}

// checkProgressiveWindows asserts the census answers: every window's SUM and
// COUNT are exactly the input's, and the result each window was emitted
// with is the result the session reports at the end.
func checkProgressiveWindows(t *testing.T, got, emitted []WindowResult, sums []float64, perWindow int) {
	t.Helper()
	if len(got) != len(sums) || len(emitted) != len(sums) {
		t.Fatalf("closed %d windows (%d emitted), want %d", len(got), len(emitted), len(sums))
	}
	for w, win := range got {
		if c := win.Result(query.Count).Estimate.Value; c != float64(perWindow) {
			t.Fatalf("window %d COUNT %v, want %d", w, c, perWindow)
		}
		if s := win.Result(query.Sum).Estimate.Value; s != sums[w] {
			t.Fatalf("window %d SUM %v, want %v", w, s, sums[w])
		}
		if win.SampleSize != int64(perWindow) {
			t.Fatalf("window %d aggregated %d items, want %d", w, win.SampleSize, perWindow)
		}
		e := emitted[w]
		if !e.Start.Equal(win.Start) || e.SampleSize != win.SampleSize ||
			e.Result(query.Sum).Estimate != win.Result(query.Sum).Estimate ||
			e.Result(query.QuantileOf(0.5)).Estimate != win.Result(query.QuantileOf(0.5)).Estimate {
			t.Fatalf("window %d changed between its emit and the final report", w)
		}
	}
}

func progressiveConfig(spec topology.TreeSpec, emitted *[]WindowResult, mu *sync.Mutex) LiveConfig {
	cfg := nodeTestConfig(spec, FractionBudget{Fraction: 1}, 0)
	cfg.Queries = []query.Kind{query.Sum, query.Count, query.QuantileOf(0.5)}
	cfg.Window = time.Millisecond // sweep often: closes must land between a later window's records
	cfg.OnWindow = func(w WindowResult) {
		mu.Lock()
		*emitted = append(*emitted, w)
		mu.Unlock()
	}
	return cfg
}

const (
	progWindows = 40
	progPerSlot = 200
	progLead    = 3
)

// Root recycling, single process: windows close while later windows are
// being ingested into the very slabs the closed ones gave back; every
// window must still answer the census exactly. Run with -race -count=10.
func TestRootRecyclingKeepsWindowResultsLive(t *testing.T) {
	spec := topology.Testbed()
	var (
		mu      sync.Mutex
		emitted []WindowResult
	)
	s, err := OpenLive(nil, progressiveConfig(spec, &emitted, &mu))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	ings := make([]*Ingester, spec.Sources)
	for slot := range ings {
		if ings[slot], err = s.Ingester(slot); err != nil {
			t.Fatal(err)
		}
	}
	sums := progressiveRun(t, progWindows, spec.Sources, progPerSlot, spec.Window,
		func(slot int, items []stream.Item) error { return ings[slot].Push(items...) },
		func() int { return s.Snapshot().WindowsClosed })
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkProgressiveWindows(t, res.Windows, emitted, sums, spec.Sources*progPerSlot)
	var retained int
	for _, rp := range s.rootProcs {
		retained += rp.ew.slabs.retained
	}
	if total := progWindows * spec.Sources * progPerSlot; retained == 0 || retained > total/2 {
		t.Fatalf("root stores retain %d items of capacity after %d ingested: want reuse, not one slab set per window", retained, total)
	}
}

// The same through three OpenNode tiers sharing one in-memory broker.
func TestRootRecyclingKeepsWindowResultsNode(t *testing.T) {
	spec := topology.Testbed()
	var (
		mu      sync.Mutex
		emitted []WindowResult
	)
	broker := mq.NewBroker()
	defer broker.Close()
	cfg := withBus(progressiveConfig(spec, &emitted, &mu), transport.WrapBroker(broker))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	root, err := OpenNode(ctx, cfg, NodeTier{Root: true})
	if err != nil {
		t.Fatalf("OpenNode(root): %v", err)
	}
	defer root.Close()
	edgeCfg := cfg
	edgeCfg.OnWindow = nil
	mid, err := OpenNode(ctx, edgeCfg, NodeTier{Layers: []int{1}})
	if err != nil {
		t.Fatalf("OpenNode(mid): %v", err)
	}
	defer mid.Close()
	leaf, err := OpenNode(ctx, edgeCfg, NodeTier{Layers: []int{0}, Ingest: true})
	if err != nil {
		t.Fatalf("OpenNode(leaf): %v", err)
	}
	defer leaf.Close()

	sums := progressiveRun(t, progWindows, spec.Sources, progPerSlot, spec.Window,
		func(slot int, items []stream.Item) error { return leaf.Push(slot, items...) },
		func() int { return int(root.windowsClosed.Load()) })
	if err := leaf.FinishIngest(); err != nil {
		t.Fatalf("FinishIngest: %v", err)
	}
	if err := root.WaitDone(ctx); err != nil {
		t.Fatalf("root WaitDone: %v", err)
	}
	res := root.Close()
	checkProgressiveWindows(t, res.Windows, emitted, sums, spec.Sources*progPerSlot)
}
