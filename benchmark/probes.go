package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/tcp"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Layer probes: each exercises one layer's public functions on its own, in
// the record and batch shape the workload produces, with spans around the
// calls. They answer "what does this layer cost per unit" without the rest
// of the system running beside it.

// shape is the workload's leaf-hop traffic as the replay observed it: what
// one Push turns into on the wire.
type shape struct {
	recordsPerSend int
	bytesPerRecord int
	partitions     int
	keys           [][]byte
	value          []byte      // shared by every record: a bus retains but never mutates it
	recs           []mq.Record // scratch for records
}

// records returns one send's worth of records, refilled (a SendBatch may
// write positions into the slice it is given).
func (sh *shape) records() []mq.Record {
	sh.recs = sh.recs[:0]
	for _, key := range sh.keys {
		sh.recs = append(sh.recs, mq.Record{Key: key, Value: sh.value})
	}
	return sh.recs
}

func shapeOf(sp spec, c *chain) *shape {
	sh := &shape{recordsPerSend: 1, bytesPerRecord: 64, partitions: max(sp.partitions, 1)}
	if c.leafSends > 0 && c.leafRecords > 0 {
		sh.recordsPerSend = max(1, int(math.Round(float64(c.leafRecords)/float64(c.leafSends))))
		sh.bytesPerRecord = max(1, int(c.leafBytes/c.leafRecords))
	}
	for i := 0; i < sh.recordsPerSend; i++ {
		sh.keys = append(sh.keys, []byte(fmt.Sprintf("key%03d", i)))
	}
	sh.value = make([]byte, sh.bytesPerRecord)
	return sh
}

// mallocs reads the allocation counter (stops the world; probe boundaries only).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeBus times SendBatch and PollInto on a bus in the workload's record
// shape: sends rounds pushes of sh.recordsPerSend records, then polls them
// all back. The records share one value block, so the allocations counted
// are the bus's own.
func probeBus(rec *recorder, bus transport.Bus, sh *shape, sendSpan, pollSpan string, rounds int) (allocsPerRecord float64, err error) {
	const topic = "probe"
	if err := bus.CreateTopic(topic, sh.partitions, 0); err != nil {
		return 0, err
	}
	cons, err := bus.NewGroupConsumer(topic, "probe-group")
	if err != nil {
		return 0, err
	}
	defer cons.Close()
	prod := bus.NewProducer()
	total := rounds * sh.recordsPerSend
	m0 := mallocs()
	for r := 0; r < rounds; r++ {
		recs := sh.records()
		h := rec.begin(sendSpan)
		err := prod.SendBatch(topic, recs)
		rec.end(h, int64(len(recs)))
		if err != nil {
			return 0, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	scratch := make([]mq.Record, 0, 256)
	for got := 0; got < total; {
		h := rec.begin(pollSpan)
		scratch, err = cons.PollInto(ctx, scratch[:0], 256)
		rec.end(h, int64(len(scratch)))
		if err != nil {
			return 0, err
		}
		got += len(scratch)
	}
	return float64(mallocs()-m0) / float64(total), nil
}

// probeTCP runs probeBus against a tcp.Listen broker on loopback and
// returns the wire overhead: BytesOut of a send-only pass ÷ payload − 1.
func probeTCP(rec *recorder, sh *shape, rounds int) (overheadFrac float64, err error) {
	broker := mq.NewBroker()
	defer broker.Close()
	srv, err := tcp.Listen("127.0.0.1:0", transport.WrapBroker(broker))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cl, err := tcp.Dial(srv.Addr().String())
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	// Wire overhead: a separate short send-only pass, so poll requests do
	// not count against the payload.
	const topic = "overhead"
	if err := cl.CreateTopic(topic, sh.partitions, 0); err != nil {
		return 0, err
	}
	prod := cl.NewProducer()
	before := cl.Counters().BytesOut
	var payload int64
	for r := 0; r < 64; r++ {
		recs := sh.records()
		for _, r := range recs {
			payload += int64(len(r.Key) + len(r.Value))
		}
		if err := prod.SendBatch(topic, recs); err != nil {
			return 0, err
		}
	}
	overheadFrac = float64(cl.Counters().BytesOut-before)/float64(payload) - 1
	_, err = probeBus(rec, cl, sh, "tcp.SendBatch", "tcp.PollInto", rounds)
	return overheadFrac, err
}

// forwarder is the no-op processor of the pump probe: every polled batch is
// forwarded whole to the sink.
type forwarder struct{ ctx streams.ProcessorContext }

func (f *forwarder) Init(ctx streams.ProcessorContext) error { f.ctx = ctx; return nil }
func (f *forwarder) Process(m streams.Message) error         { f.ctx.Forward(m); return nil }
func (f *forwarder) ProcessBatch(ms []streams.Message) error { f.ctx.ForwardBatch(ms); return nil }
func (f *forwarder) Close() error                            { return nil }

// probePump times the streams runtime alone: a source → no-op processor →
// sink topology over transport.Mem, fed records preloaded in the workload's
// shape, timed from Start until the last record reaches the sink topic.
func probePump(rec *recorder, sh *shape, records int) error {
	bus := transport.NewMem()
	defer bus.Close()
	for _, t := range []string{"pump-in", "pump-out"} {
		if err := bus.CreateTopic(t, sh.partitions, 0); err != nil {
			return err
		}
	}
	out, err := bus.NewConsumer("pump-out")
	if err != nil {
		return err
	}
	defer out.Close()
	prod := bus.NewProducer()
	sent := 0
	for sent < records {
		recs := sh.records()
		if err := prod.SendBatch("pump-in", recs); err != nil {
			return err
		}
		sent += len(recs)
	}
	topo, err := streams.NewTopology().
		Source("in", "pump-in").
		Processor("noop", func() streams.Processor { return &forwarder{} }, "in").
		Sink("out", "pump-out", "noop").
		Build()
	if err != nil {
		return err
	}
	rt, err := streams.NewRuntime(bus, topo, "pump-probe")
	if err != nil {
		return err
	}
	h := rec.begin("streams.pump")
	if err := rt.Start(); err != nil {
		rec.end(h, 0)
		return err
	}
	err = waitPolled(out, make([]mq.Record, 0, 256), sent)
	rec.end(h, int64(sent))
	if stopErr := rt.Stop(); err == nil {
		err = stopErr
	}
	return err
}

// leafInterval builds the Ψ store one leaf node holds at a window close:
// the first leaf's two slots, one window's items, one weight-1 pair per
// stratum.
func leafInterval(sp spec, seed int64, seconds float64) []stream.Batch {
	by := make(map[stream.SourceID]*stream.Batch)
	var order []stream.SourceID
	add := func(it stream.Item) {
		b := by[it.Source]
		if b == nil {
			b = &stream.Batch{Source: it.Source, Weight: 1}
			by[it.Source] = b
			order = append(order, it.Source)
		}
		b.Items = append(b.Items, it)
	}
	if sp.paced {
		in := genPaced(sp, seed, seconds)
		top := in.steps[len(in.steps)-1]
		for s := 0; s < 2; s++ {
			for t := top.firstTick; t < top.firstTick+in.ticksPerWindow; t++ {
				for i := in.off[s][t]; i < in.off[s][t+1]; i++ {
					add(stream.Item{Source: in.names[s][in.strat[s][i]], Value: in.vals[s][i]})
				}
			}
		}
	} else {
		in := genClosed(sp, seed)
		for s := 0; s < 2; s++ {
			for _, v := range in.values(s, 0) {
				add(stream.Item{Source: in.src[s], Value: v})
			}
		}
	}
	pairs := make([]stream.Batch, 0, len(order))
	for _, id := range order {
		pairs = append(pairs, *by[id])
	}
	return pairs
}

// probeSampler times the sampler on one leaf interval at the workload's
// fraction and strata count: WHS SampleInterval as the nodes call it, and
// the bare reservoir underneath.
func probeSampler(rec *recorder, sp spec, pairs []stream.Batch, seed int64, rounds int) {
	var n int
	for _, p := range pairs {
		n += len(p.Items)
	}
	budget := core.EffectiveFractionBudget{Fraction: sp.fraction}.SampleSizeWeighted(float64(n))
	whs := sample.NewWHS(xrand.New(uint64(seed)), sample.WithAllocator(sample.WaterFill{}))
	for r := 0; r < rounds; r++ {
		h := rec.begin("sample.WHSampler.SampleInterval")
		whs.SampleInterval(pairs, budget)
		rec.end(h, int64(n))
	}
	rng := xrand.New(uint64(seed) + 1)
	for r := 0; r < rounds; r++ {
		h := rec.begin("sample.Reservoir.AddAll")
		for _, p := range pairs {
			res := sample.NewReservoir(max(1, budget*len(p.Items)/n), rng)
			res.AddAll(p.Items)
		}
		rec.end(h, int64(n))
	}
}

// probeValve times the ingest valve alone: an ingest-only tier session on
// an in-memory bus with backpressure off and nothing consuming, so a Push
// is stamp + encode + append and never waits. (The node-mode valve is the
// process-per-tier twin of Ingester.Push — same stamping, same batch
// encoder, same SendBatch.)
func probeValve(rec *recorder, sp spec, seed int64, feed func(push func(slot int, items []stream.Item) error) error) error {
	cfg := liveConfig(sp, seed)
	cfg.Bus = transport.NewMem()
	defer cfg.Bus.Close()
	cfg.MaxIngestLag = -1
	ns, err := core.OpenNode(context.Background(), cfg, core.NodeTier{Ingest: true})
	if err != nil {
		return err
	}
	defer ns.Close()
	return feed(func(slot int, items []stream.Item) error {
		h := rec.begin("core.NodePusher.Push")
		err := ns.Push(slot, items...)
		rec.end(h, int64(len(items)))
		return err
	})
}

// probeCodecAllocs counts the allocations of one encode + decode of a
// representative batch in steady state (scratch reused, as on the hot path).
func probeCodecAllocs(b stream.Batch) float64 {
	var buf []byte
	var scratch stream.Batch
	round := func() {
		buf = b.AppendMarshal(buf[:0])
		_ = stream.UnmarshalBatchInto(&scratch, buf) // decoding its own encoding cannot fail
	}
	round()
	const rounds = 200
	m0 := mallocs()
	for i := 0; i < rounds; i++ {
		round()
	}
	return float64(mallocs()-m0) / rounds
}

// waitPolled polls until n records have arrived.
func waitPolled(cons transport.Consumer, scratch []mq.Record, n int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for got := 0; got < n; {
		var err error
		scratch, err = cons.PollInto(ctx, scratch[:0], 256)
		if err != nil {
			return err
		}
		got += len(scratch)
	}
	return nil
}
