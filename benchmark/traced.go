package main

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
)

// traceShare is the traced mode's length relative to an untraced run.
const traceShare = 0.25

// runTraced is `-trace 1`: with the same seed and generated input, at a
// quarter of the untraced length, it runs
//
//  1. the live workload untraced — the baseline the next two are read against;
//  2. the live workload again with spans around the benchmark's own calls
//     (Open, every Push, Close, every scrape) and Snapshot sampled at 10 Hz;
//  3. the single-goroutine hand-chained replay, a span around every call;
//  4. the layer probes;
//
// writes every span to one file, and returns the per-layer metrics. The
// end-to-end metrics are never taken from here.
func runTraced(w io.Writer, sp spec, seed int64, seconds float64, spansPath string, rec *record) (map[string]float64, verdict, error) {
	short := seconds * traceShare
	tr := newTrace()

	base, err := runLive(sp, seed, short, nil)
	if err != nil {
		return nil, verdict{}, fmt.Errorf("untraced baseline: %w", err)
	}
	v := check(base, base.pushed)
	for i := range v.known {
		v.known[i] = "untraced baseline: " + v.known[i]
	}

	liveRec := tr.recorder("live")
	top := liveRec.begin("live.run")
	live, err := runLive(sp, seed, short, liveRec)
	if err != nil {
		return nil, v, fmt.Errorf("traced live run: %w", err)
	}
	liveRec.end(top, live.items)
	vl := check(live, live.pushed)
	describe(w, live, rec)

	chainRec := tr.recorder("chain")
	var cr *chainRun
	if sp.paced {
		cr, err = replayPaced(sp, seed, short, chainRec)
	} else {
		cr, err = replayClosed(sp, seed, time.Duration(short*float64(time.Second)), chainRec)
	}
	if err != nil {
		return nil, v, fmt.Errorf("chained replay: %w", err)
	}
	vc := check(&cr.run, cr.run.pushed)

	probeRec := tr.recorder("probe")
	pr, err := runProbes(probeRec, sp, seed, short, cr.chain)
	if err != nil {
		return nil, v, fmt.Errorf("layer probes: %w", err)
	}

	spans := tr.all()
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, v, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans    %d written to %s\n", len(spans), spansPath)

	// One verdict for the invocation: every run and the replay must pass.
	for _, part := range []struct {
		name string
		v    verdict
	}{{"traced live run", vl}, {"chained replay", vc}} {
		v.attempted += part.v.attempted
		v.failed += part.v.failed
		for _, p := range part.v.problems {
			v.problems = append(v.problems, part.name+": "+p)
		}
		for _, k := range part.v.known {
			v.known = append(v.known, part.name+": "+k)
		}
	}
	v.sumRelErrPct, v.sumCoverage, v.p90Coverage, v.topKRecall = vl.sumRelErrPct, vl.sumCoverage, vl.p90Coverage, vl.topKRecall

	liveT, chainT, probeT := totals(spans, "live"), totals(spans, "chain"), totals(spans, "probe")
	c := cr.chain
	items := float64(c.items)
	windows := float64(max(len(c.results), 1))
	baseCPU := endToEndValues(base)["cpu_ns_per_item"]
	tracedCPU := endToEndValues(live)["cpu_ns_per_item"]
	var layerSum float64
	for _, name := range layerSpans {
		layerSum += float64(chainT[name].selfNs)
	}
	layerSum /= items

	e1in, e1out := tierItems(live.out.nodes, "edge1")
	e2in, e2out := tierItems(live.out.nodes, "edge2")
	rootIn, _ := tierItems(live.out.nodes, "root")
	net := live.out.net
	vals := map[string]float64{
		"gen.ns_per_item":                  pr.genNsPerItem,
		"stream.encode_ns_per_item":        chainT[spanEncode].per(),
		"stream.decode_ns_per_item":        chainT[spanDecode].per(),
		"stream.allocs_per_batch":          pr.codecAllocs,
		"stream.items_per_batch":           float64(chainT[spanEncode].count) / float64(max(c.records, 1)),
		"mq.append_ns_per_record":          probeT["mq.SendBatch"].per(),
		"mq.fetch_ns_per_record":           probeT["mq.PollInto"].per(),
		"mq.allocs_per_record":             pr.mqAllocs,
		"mq.records_per_item":              float64(c.records) / items,
		"streams.pump_ns_per_record":       probeT["streams.pump"].per(),
		"sample.whs_ns_per_item":           probeT["sample.WHSampler.SampleInterval"].per(),
		"sample.reservoir_add_ns_per_item": probeT["sample.Reservoir.AddAll"].per(),
		"sample.kept_frac":                 float64(e1out) / float64(max(e1in, 1)),
		"core.valve_push_ns_per_item":      probeT["core.NodePusher.Push"].per(),
		"core.node_ingest_ns_per_item":     chainT[spanIngest].per(),
		"core.node_close_ns_per_window":    chainT[spanNodeClose].per(),
		"core.root_close_ns_per_window":    chainT[spanRootClose].per(),
		"core.setup_open_ms":               float64(liveT["core.Open"].wallNs) / 1e6,
		"core.drain_close_ms":              float64(liveT["core.Close"].wallNs) / 1e6,
		"core.edge1.items_in":              float64(e1in),
		"core.edge1.items_out":             float64(e1out),
		"core.edge2.items_in":              float64(e2in),
		"core.edge2.items_out":             float64(e2out),
		"core.root.items_in":               float64(rootIn),
		"core.late_dropped":                float64(live.out.lateDropped),
		"core.windows":                     float64(len(live.out.windows)),
		"core.ingest_lag_max":              float64(live.ingestLagMax),
		"query.linear_ns_per_window":       chainT[spanLinear].per(),
		"query.topk_ns_per_window":         chainT[spanTopK].per(),
		"query.quantile_ns_per_window":     chainT[spanQuantile].per(),
		"query.root_items_per_window":      float64(c.rootItems) / windows,
		"query.sum_rel_error_pct":          vl.sumRelErrPct,
		"tcp.send_ns_per_record":           probeT["tcp.SendBatch"].per(),
		"tcp.poll_ns_per_record":           probeT["tcp.PollInto"].per(),
		"tcp.wire_overhead_frac":           pr.tcpOverhead,
		"tcp.reconnects":                   float64(net.Reconnects),
		"tcp.send_errors":                  float64(net.SendErrors),
		"tcp.poll_errors":                  float64(net.PollErrors),
		"ops.scrape_ms_p50":                median(live.scrapeMs),
		"proc.heap_live_peak_mb":           float64(live.heapLivePeak) / (1 << 20),
		"proc.gc_cpu_frac":                 live.gcCPUFrac,
		"chain.items_per_s":                items / cr.wall.Seconds(),
		"layers.sum_ns_per_item":           layerSum,
		"layers.residual_ns_per_item":      baseCPU - pr.genNsPerItem - layerSum,
		"trace.overhead_frac":              tracedCPU/baseCPU - 1,
	}
	// Open-loop extras: per-step latency, the sustained rate, and how late
	// the generator ran. Zero on the closed-loop workloads.
	for _, name := range []string{"low", "mid", "high"} {
		vals["paced.result_latency_p50_ms."+name] = 0
	}
	vals["paced.sustained_rate_items_per_s"], vals["gen.lateness_p99_ms"] = 0, 0
	if sp.paced {
		var late []float64
		for i := range live.segs {
			s := &live.segs[i]
			vals["paced.result_latency_p50_ms."+s.name] = s.p50()
			if sustained(sp, s) {
				vals["paced.sustained_rate_items_per_s"] = math.Max(vals["paced.sustained_rate_items_per_s"], float64(s.rate))
			}
			late = append(late, s.genLate...)
		}
		vals["gen.lateness_p99_ms"] = quantile(sortedCopy(late), 0.99)
	}

	fmt.Fprintf(w, "cost     cpu_ns_per_item %.1f (untraced, %.0f%% length) = gen %.1f + layers.sum %.1f + residual %.1f; traced cpu_ns_per_item %.1f\n",
		baseCPU, 100*traceShare, pr.genNsPerItem, layerSum, baseCPU-pr.genNsPerItem-layerSum, tracedCPU)
	fmt.Fprintf(w, "replay   %d items in %v on one goroutine, %d windows, %d late drops; layer self times (ns per unit):\n",
		c.items, cr.wall.Round(time.Millisecond), len(c.results), c.lateDropped)
	for _, name := range sortedKeys(chainT) {
		t := chainT[name]
		fmt.Fprintf(w, "  %-32s calls %8d  units %10d  self %12d ns  %10.1f ns/unit\n", name, t.calls, t.count, t.selfNs, t.per())
	}
	return vals, v, nil
}

// probeResults are the probe numbers that are not span totals.
type probeResults struct {
	genNsPerItem float64
	codecAllocs  float64
	mqAllocs     float64
	tcpOverhead  float64
}

func runProbes(rec *recorder, sp spec, seed int64, seconds float64, c *chain) (probeResults, error) {
	var pr probeResults
	sh := shapeOf(sp, c)
	rounds := max(64, 200_000/sh.recordsPerSend/max(1, sh.bytesPerRecord/256))

	mem := transport.NewMem()
	allocs, err := probeBus(rec, mem, sh, "mq.SendBatch", "mq.PollInto", rounds)
	mem.Close()
	if err != nil {
		return pr, fmt.Errorf("mq: %w", err)
	}
	pr.mqAllocs = allocs
	if sp.tcp {
		// Only where the transport is the workload: a loopback daemon's
		// Close alone costs two seconds (see system.release).
		if pr.tcpOverhead, err = probeTCP(rec, sh, rounds); err != nil {
			return pr, fmt.Errorf("tcp: %w", err)
		}
	}
	if err := probePump(rec, sh, rounds*sh.recordsPerSend); err != nil {
		return pr, fmt.Errorf("streams: %w", err)
	}
	pairs := leafInterval(sp, seed, seconds)
	probeSampler(rec, sp, pairs, seed, 20)
	pr.codecAllocs = probeCodecAllocs(pairs[0])

	// The valve and the generator are driven by the workload's own pusher
	// code: once into a bare ingest tier (serialised, so one recorder can
	// span every Push), once into a no-op sink.
	var mu sync.Mutex
	if err := probeValve(rec, sp, seed, func(push func(int, []stream.Item) error) error {
		_, _, err := drivePushers(sp, seed, seconds, func(slot int, items []stream.Item) error {
			mu.Lock()
			defer mu.Unlock()
			return push(slot, items)
		})
		return err
	}); err != nil {
		return pr, fmt.Errorf("valve: %w", err)
	}
	n, cpu, err := drivePushers(sp, seed, seconds, func(int, []stream.Item) error { return nil })
	if err != nil {
		return pr, fmt.Errorf("generator: %w", err)
	}
	pr.genNsPerItem = float64(cpu) / float64(n)
	return pr, nil
}

// drivePushers runs the workload's real pusher goroutines flat out against
// sink, for a bounded stretch of the input, and returns the items pushed
// and the process CPU the pushing took (input generation excluded).
func drivePushers(sp spec, seed int64, seconds float64, sink func(slot int, items []stream.Item) error) (int64, time.Duration, error) {
	push := func(slot int) pushFn {
		return func(items ...stream.Item) error { return sink(slot, items) }
	}
	if sp.paced {
		st := newPacedState(sp, seed, seconds)
		for s := range st.push {
			st.push[s] = push(s)
		}
		st.origin = time.Now().Add(-24 * time.Hour) // every tick is overdue: no sleeping
		c0 := cpuNow()
		var wg sync.WaitGroup
		for p := 0; p < pushers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				st.pusher(p, nil)
			}(p)
		}
		wg.Wait()
		cpu := cpuNow() - c0
		return st.pushed.Load(), cpu, st.err()
	}
	st := newClosedState(sp, seed)
	for s := range st.push {
		st.push[s] = push(s)
	}
	c0 := cpuNow()
	st.pushWindows(0, int64(max(4, sp.cycle/8)), nil)
	return st.pushed.Load(), cpuNow() - c0, st.err()
}
