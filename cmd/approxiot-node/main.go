// Command approxiot-node runs ONE tier of an ApproxIoT tree as its own OS
// process, the deployment shape of the paper's prototype (edge brokers and
// samplers as separate machines, Kafka in between): a broker daemon serves
// the message fabric over TCP, and leaf / intermediate / root processes
// dial in and run their slice of the same compiled plan. Every process is
// handed identical tree flags, so topic names, member IDs, seeds, and
// watermark expectations agree by construction; the root's per-window
// counts are then bit-identical to a single-process run of the same
// workload (-role single prints the reference).
//
// A 3-tier tree as four processes:
//
//	approxiot-node -role broker -addr 127.0.0.1:9399
//	approxiot-node -role root   -addr 127.0.0.1:9399
//	approxiot-node -role mid    -addr 127.0.0.1:9399
//	approxiot-node -role leaf   -addr 127.0.0.1:9399 -items 4000
//
// The leaf pushes a deterministic event-time workload, broadcasts end of
// stream, and every process exits on its own once the root has seen the
// whole stream out. The same workload in one process, for comparison — the
// same node session running every tier over an in-memory bus, through the
// same push, finish, wait, drain and close steps:
//
//	approxiot-node -role single -items 4000
//
// Interrupt (Ctrl-C) drains the process's groups and exits cleanly; a
// second interrupt aborts. -ops serves /health and /metrics (including the
// process's transport-link counters) while the tier runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/ops"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/tcp"
)

// eventEpoch pins the workload's event time to an absolute instant so
// every process — and every comparison run — buckets the same items into
// the same windows regardless of when it is launched.
var eventEpoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

func main() {
	var (
		role     = flag.String("role", "", "broker | leaf | mid | root | single")
		addr     = flag.String("addr", "127.0.0.1:9399", "broker address (serve when -role broker, dial otherwise)")
		opsAddr  = flag.String("ops", "", "serve /health and /metrics on this address (empty = off)")
		sources  = flag.Int("sources", 8, "source slots feeding the tree")
		l0       = flag.Int("l0", 4, "edge-layer nodes")
		l1       = flag.Int("l1", 2, "intermediate-layer nodes (0 = two-tier tree)")
		items    = flag.Int("items", 2000, "items pushed per source (leaf and single roles)")
		span     = flag.Duration("span", 4*time.Second, "event-time span the items cover")
		ewindow  = flag.Duration("ewindow", time.Second, "event-time window size")
		cadence  = flag.Duration("cadence", 20*time.Millisecond, "LiveConfig.Window: idle timeout (4x), drain probe and idle-beat cadence; closes are event-driven")
		lateness = flag.Duration("lateness", 0, "allowed lateness (0 = one event window)")
		fraction = flag.Float64("fraction", 1.0, "end-to-end sampling fraction (0,1]")
		seed     = flag.Uint64("seed", 2018, "deterministic seed shared by every process")
		idle     = flag.Duration("idle", 30*time.Second, "event-time idle timeout (high: completeness by watermark only)")
		rate     = flag.Float64("rate", 0, "items/s pacing per source (0 = unpaced)")
		dialWait = flag.Duration("dialwait", 15*time.Second, "how long to retry dialing the broker")
	)
	flag.Parse()

	if *lateness == 0 {
		*lateness = *ewindow
	}
	layers := []topology.LayerSpec{{Name: "edge", Nodes: *l0}}
	if *l1 > 0 {
		layers = append(layers, topology.LayerSpec{Name: "fog", Nodes: *l1})
	}
	layers = append(layers, topology.LayerSpec{Name: "root", Nodes: 1})
	spec := topology.TreeSpec{Sources: *sources, Layers: layers, Window: *ewindow}
	cfg := core.LiveConfig{
		Spec:            spec,
		NewSampler:      core.WHSFactory(),
		Cost:            core.FractionBudget{Fraction: *fraction},
		Window:          *cadence,
		Queries:         []query.Kind{query.Sum, query.Count},
		Seed:            *seed,
		EventTime:       true,
		AllowedLateness: *lateness,
		IdleTimeout:     *idle,
		SourceRate:      *rate,
	}

	var code int
	switch *role {
	case "broker":
		code = runBroker(*addr)
	case "leaf", "mid", "root", "single":
		code = runTier(*role, *addr, *opsAddr, cfg, *items, *span, *dialWait)
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q (want broker | leaf | mid | root | single)\n", *role)
		code = 2
	}
	os.Exit(code)
}

// interrupts returns a channel closed on the first interrupt and an abort
// context cancelled on the second. Duplicate deliveries of the same
// logical interrupt (process-group `timeout -s INT`) are debounced so a
// graceful CI drain cannot escalate itself into an abort.
func interrupts() (<-chan struct{}, context.Context) {
	stop := make(chan struct{})
	abortCtx, abort := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "interrupt — draining (interrupt again to abort)")
		close(stop)
		first := time.Now()
		for range sig {
			if time.Since(first) < 250*time.Millisecond {
				continue
			}
			fmt.Fprintln(os.Stderr, "second interrupt — aborting without drain")
			abort()
			return
		}
	}()
	return stop, abortCtx
}

// runBroker serves the message fabric: an in-memory broker behind the TCP
// transport daemon, until interrupted.
func runBroker(addr string) int {
	b := mq.NewBroker()
	srv, err := tcp.Listen(addr, transport.WrapBroker(b))
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		return 1
	}
	fmt.Printf("broker serving on %s\n", srv.Addr())
	stop, abortCtx := interrupts()
	select {
	case <-stop:
	case <-abortCtx.Done():
	}
	srv.Close()
	b.Close()
	ctr := srv.Counters()
	fmt.Printf("final role=broker bytes_in=%d bytes_out=%d round_trips=%d send_errors=%d poll_errors=%d\n",
		ctr.BytesIn, ctr.BytesOut, ctr.RoundTrips, ctr.SendErrors, ctr.PollErrors)
	return 0
}

// dialRetry dials the broker, retrying while it comes up — tier processes
// are expected to race the broker's startup.
func dialRetry(addr string, wait time.Duration) (*tcp.Client, error) {
	deadline := time.Now().Add(wait)
	for {
		c, err := tcp.Dial(addr)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// tierFor maps a role name to the slice of the tree it runs.
func tierFor(role string, spec topology.TreeSpec) (core.NodeTier, error) {
	switch role {
	case "single":
		every := core.NodeTier{Root: true, Ingest: true}
		for l := 0; l < spec.RootLayer(); l++ {
			every.Layers = append(every.Layers, l)
		}
		return every, nil
	case "leaf":
		return core.NodeTier{Layers: []int{0}, Ingest: true}, nil
	case "mid":
		if len(spec.Layers) < 3 {
			return core.NodeTier{}, fmt.Errorf("two-tier tree (-l1 0) has no intermediate layer for -role mid")
		}
		mids := make([]int, 0, len(spec.Layers)-2)
		for l := 1; l < len(spec.Layers)-1; l++ {
			mids = append(mids, l)
		}
		return core.NodeTier{Layers: mids}, nil
	case "root":
		return core.NodeTier{Root: true}, nil
	}
	return core.NodeTier{}, fmt.Errorf("unknown tier role %q", role)
}

// runTier runs one process of the multi-process deployment — or, with role
// single, every tier in this process over an in-memory bus.
func runTier(role, addr, opsAddr string, cfg core.LiveConfig, items int, span, dialWait time.Duration) int {
	tier, err := tierFor(role, cfg.Spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var counters func() transport.Counters
	where := "against " + addr
	if role == "single" {
		bus := transport.NewMem()
		defer bus.Close()
		cfg.Bus, where = bus, "over an in-memory bus"
	} else {
		client, err := dialRetry(addr, dialWait)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dial %s: %v\n", addr, err)
			return 1
		}
		defer client.Close()
		cfg.Bus, counters = client, client.Counters
	}

	stop, abortCtx := interrupts()
	sess, err := core.OpenNode(abortCtx, cfg, tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open node:", err)
		return 1
	}
	fmt.Printf("%s tier up %s (%d sources, %d layers, %v windows)\n",
		role, where, cfg.Spec.Sources, len(cfg.Spec.Layers), cfg.Spec.Window)
	stopOps := serveOps(opsAddr, sess, counters)
	defer stopOps()

	interrupted := false
	if tier.Ingest {
		if ok := pushWorkload(sess, cfg, items, span, stop); !ok {
			interrupted = true
		} else if err := sess.FinishIngest(); err != nil {
			fmt.Fprintln(os.Stderr, "finish ingest:", err)
			return 1
		}
	}

	// Wait for the deployment-wide end of stream — or for an interrupt,
	// which skips straight to this process's drain.
	if !interrupted {
		waitCtx, cancel := context.WithCancel(abortCtx)
		go func() {
			select {
			case <-stop:
				cancel()
			case <-waitCtx.Done():
			}
		}()
		if err := sess.WaitDone(waitCtx); err != nil {
			interrupted = true
		}
		cancel()
	}

	drainCtx, cancel := context.WithTimeout(abortCtx, 30*time.Second)
	if err := sess.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	cancel()
	res := sess.Close()
	if tier.Root {
		printWindows(res.Windows)
	}
	fmt.Printf("final role=%s produced=%d rootProcessed=%d windows=%d lateDropped=%d decodeErrors=%d interrupted=%v\n",
		role, res.Produced, res.RootProcessed, len(res.Windows), res.LateDropped, res.DecodeErrors, interrupted)
	if counters != nil {
		ctr := counters()
		fmt.Printf("transport bytes_out=%d bytes_in=%d round_trips=%d reconnects=%d send_errors=%d poll_errors=%d\n",
			ctr.BytesOut, ctr.BytesIn, ctr.RoundTrips, ctr.Reconnects, ctr.SendErrors, ctr.PollErrors)
	}
	return 0
}

// serveOps mounts the operational surface when an address is given; the
// transport hook adds the process's bus-link counters to /metrics.
func serveOps(addr string, src ops.Source, counters func() transport.Counters) func() {
	if addr == "" {
		return func() {}
	}
	srv := ops.NewServer(src, ops.Config{Transport: counters})
	srv.Start()
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ops:", err)
		}
	}()
	fmt.Printf("ops surface on http://%s  (/health, /metrics)\n", addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		srv.Stop()
	}
}

// genSlot builds source slot's deterministic event-time items: timestamps
// laid out evenly across span from the fixed epoch (offset per slot so
// sub-streams interleave), values a fixed function of position. Identical
// across processes and runs by construction.
func genSlot(slot, items int, span time.Duration) []stream.Item {
	out := make([]stream.Item, items)
	step := span / time.Duration(items)
	src := stream.SourceID(fmt.Sprintf("sensor-%d", slot))
	for k := 0; k < items; k++ {
		out[k] = stream.Item{
			Source: src,
			Value:  0.5*float64(slot+1) + 0.25*float64(k%17),
			Ts:     eventEpoch.Add(time.Duration(k)*step + time.Duration(slot)*time.Millisecond),
		}
	}
	return out
}

// pushSlot feeds one slot's workload through push in window-sized chunks,
// honoring stop. Reports whether the slot was fully pushed.
func pushSlot(push func([]stream.Item) error, slot int, cfg core.LiveConfig, items int, span time.Duration, stop <-chan struct{}) bool {
	workload := genSlot(slot, items, span)
	const chunk = 512
	for lo := 0; lo < len(workload); lo += chunk {
		select {
		case <-stop:
			return false
		default:
		}
		hi := lo + chunk
		if hi > len(workload) {
			hi = len(workload)
		}
		if err := push(workload[lo:hi]); err != nil {
			fmt.Fprintf(os.Stderr, "push slot %d: %v\n", slot, err)
			return false
		}
	}
	return true
}

// pushWorkload feeds every source slot (leaf and single roles). Reports
// whether the whole workload went through.
func pushWorkload(sess *core.NodeSession, cfg core.LiveConfig, items int, span time.Duration, stop <-chan struct{}) bool {
	for slot := 0; slot < cfg.Spec.Sources; slot++ {
		pusher, err := sess.Pusher(slot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pusher:", err)
			return false
		}
		if !pushSlot(func(batch []stream.Item) error { return pusher.Push(batch...) }, slot, cfg, items, span, stop) {
			return false
		}
	}
	return true
}

// printWindows renders the closed windows one per line. The smoke harness
// compares these lines between the multi-process root and the single-
// process reference: start and count must match exactly.
func printWindows(windows []core.WindowResult) {
	for _, w := range windows {
		fmt.Printf("window start=%d end=%d count=%.0f sum=%.6g zeta=%d\n",
			w.Start.UnixNano(), w.End.UnixNano(),
			w.Result(query.Count).Estimate.Value,
			w.Result(query.Sum).Estimate.Value,
			w.SampleSize)
	}
}
