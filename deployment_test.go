package approxiot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// deployConfig is the facade config the session tests share: small window so
// several windows close quickly, paced sources so production spans them.
func deployConfig() Config {
	return Config{
		Fraction:   0.25,
		Queries:    []QueryKind{Sum, Count},
		Seed:       7,
		Window:     30 * time.Millisecond,
		SourceRate: 6000,
	}
}

// pushSources drives every slot of the deployment with the generator stream
// Run's built-in client would produce for (seed, items): same quota split,
// same chunking. Deliberately re-implemented rather than shared with the
// wrapper's feed client — the session-vs-Run equivalence assertion is only
// meaningful if the pusher is independent of the code it is compared
// against. Returns once every slot's quota is pushed.
func pushSources(t *testing.T, d *Deployment, seed uint64, items int64) {
	t.Helper()
	source := gaussianSources(seed, 1000)
	sources := deployConfig().normalize().Tree.Sources
	perSource := items / int64(sources)
	remainder := items % int64(sources)
	chunk := 30 * time.Millisecond / 4
	var wg sync.WaitGroup
	for slot := 0; slot < sources; slot++ {
		quota := perSource
		if int64(slot) < remainder {
			quota++
		}
		ing, err := d.Ingester(slot)
		if err != nil {
			t.Errorf("Ingester(%d): %v", slot, err)
			return
		}
		wg.Add(1)
		go func(slot int, quota int64, ing *Ingester) {
			defer wg.Done()
			gen := source(slot)
			now := time.Now()
			var sent int64
			for sent < quota {
				batch := gen.Generate(now, chunk)
				now = now.Add(chunk)
				if len(batch) == 0 {
					continue
				}
				if int64(len(batch)) > quota-sent {
					batch = batch[:quota-sent]
				}
				if err := ing.Push(batch...); err != nil {
					t.Errorf("Push(slot %d): %v", slot, err)
					return
				}
				sent += int64(len(batch))
			}
		}(slot, quota, ing)
	}
	wg.Wait()
}

// TestOpenDeploymentEndToEnd is the facade acceptance path: Open a
// deployment, push items through the valves, receive ≥2 window results over
// the subscription while the run is in flight, read a mid-run Snapshot, and
// get a final LiveResult from Close equivalent to the legacy Run path at the
// same seed and volume.
func TestOpenDeploymentEndToEnd(t *testing.T) {
	const items = 16000
	cfg := deployConfig()
	d, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := d.State(); got != StateIngesting {
		t.Fatalf("state after Open = %v, want ingesting", got)
	}

	windows := d.Windows()
	seen2 := make(chan struct{})
	var live []WindowResult
	var collectWG sync.WaitGroup
	collectWG.Add(1)
	go func() {
		defer collectWG.Done()
		for w := range windows {
			live = append(live, w)
			if len(live) == 2 {
				close(seen2)
			}
		}
	}()

	pushSources(t, d, cfg.Seed, items)

	select {
	case <-seen2:
	case <-time.After(10 * time.Second):
		t.Fatal("did not receive 2 window results while ingesting")
	}

	snap := d.Snapshot()
	if snap.State != StateIngesting {
		t.Fatalf("snapshot state = %v, want ingesting", snap.State)
	}
	if snap.Produced == 0 || snap.RootProcessed == 0 || snap.WindowsClosed < 2 {
		t.Fatalf("snapshot counters implausible: %+v", snap)
	}
	if snap.Latency.Count() == 0 || len(snap.Bandwidth) == 0 || len(snap.Nodes) == 0 {
		t.Fatal("snapshot telemetry empty mid-run")
	}

	res, err := d.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	collectWG.Wait()
	if d.State() != StateClosed {
		t.Fatalf("state after Close = %v, want closed", d.State())
	}

	legacy, err := Run(cfg, gaussianSources(cfg.Seed, 1000), items)
	if err != nil {
		t.Fatalf("legacy Run: %v", err)
	}
	if res.Produced != items || legacy.Produced != items {
		t.Fatalf("produced %d (session) / %d (legacy), want %d", res.Produced, legacy.Produced, items)
	}
	if rel := math.Abs(res.TruthSum-legacy.TruthSum) / math.Abs(legacy.TruthSum); rel > 1e-12 {
		t.Fatalf("truth diverged: %g vs %g", res.TruthSum, legacy.TruthSum)
	}
	for name, r := range map[string]*LiveResult{"session": res, "legacy": legacy} {
		if rel := math.Abs(r.EstimateCount-float64(items)) / items; rel > 1e-9 {
			t.Fatalf("%s: estimated count %.1f, want %d exactly (Eq. 8)", name, r.EstimateCount, items)
		}
	}
	if len(live) == 0 || len(live) > len(res.Windows) {
		t.Fatalf("subscription saw %d windows, result has %d", len(live), len(res.Windows))
	}
}

func TestOpenCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d, err := Open(ctx, deployConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := d.Ingest("sensor-a", Item{Value: 1}, Item{Value: 2}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	cancel()
	select {
	case <-d.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("deployment did not close after cancel")
	}
	if _, err := d.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel err = %v, want context.Canceled", err)
	}
	if !errors.Is(d.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", d.Err())
	}
	if err := d.Ingest("sensor-a", Item{Value: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after cancel err = %v, want ErrClosed", err)
	}
}

func TestOpenIngestAfterCloseAndSetTarget(t *testing.T) {
	d, err := Open(nil, deployConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := d.SetTarget(0.05); !errors.Is(err, ErrNotAdaptive) {
		t.Fatalf("SetTarget on frozen deployment err = %v, want ErrNotAdaptive", err)
	}
	if _, err := d.Ingester(-1); !errors.Is(err, ErrBadSourceSlot) {
		t.Fatalf("Ingester(-1) err = %v, want ErrBadSourceSlot", err)
	}
	if _, err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Ingest("late", Item{Value: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close err = %v, want ErrClosed", err)
	}

	cfg := deployConfig()
	cfg.Adaptive = NewFeedbackController(0.2, 0.02)
	da, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Open adaptive: %v", err)
	}
	defer da.Close()
	if err := da.SetTarget(0.1); err != nil {
		t.Fatalf("SetTarget: %v", err)
	}
	if got := da.Target(); got != 0.1 {
		t.Fatalf("Target = %v, want 0.1", got)
	}
}

// TestSimulateOnWindowHook closes the facade gap: incremental window
// observation for Simulate via Config.OnWindow, mirroring the live
// Windows() subscription.
func TestSimulateOnWindowHook(t *testing.T) {
	var hooked []WindowResult
	cfg := Config{
		Fraction: 0.2,
		Seed:     5,
		OnWindow: func(w WindowResult) { hooked = append(hooked, w) },
	}
	res, err := Simulate(cfg, gaussianSources(5, 2000), 3*time.Second)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no windows produced")
	}
	if len(hooked) != len(res.Windows) {
		t.Fatalf("OnWindow observed %d windows, result has %d", len(hooked), len(res.Windows))
	}
	for i := range hooked {
		if hooked[i].SampleSize != res.Windows[i].SampleSize {
			t.Fatalf("hooked window %d differs from result window", i)
		}
	}
}

// TestRunOnWindowHook checks the same knob on the live batch path.
func TestRunOnWindowHook(t *testing.T) {
	var mu sync.Mutex
	var hooked int
	cfg := deployConfig()
	cfg.OnWindow = func(WindowResult) {
		mu.Lock()
		hooked++
		mu.Unlock()
	}
	res, err := Run(cfg, gaussianSources(7, 1000), 8000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hooked != len(res.Windows) {
		t.Fatalf("OnWindow ran %d times for %d windows", hooked, len(res.Windows))
	}
}

// TestOpenEventTime drives the event-time mode through the public facade:
// out-of-order pushes within AllowedLateness land in the windows their
// timestamps name (Start/End populated, exact per-window counts), a record
// beyond the horizon is counted into LateDropped, and the simulator windows
// the streaming baselines by event time too.
func TestOpenEventTime(t *testing.T) {
	epoch := time.Now().Truncate(time.Second)
	d, err := Open(context.Background(), Config{
		Fraction:        1, // census: per-window counts are exact and order-free
		Queries:         []QueryKind{Sum, Count},
		Window:          10 * time.Millisecond,
		EventTime:       true,
		AllowedLateness: 5 * time.Second,
		Seed:            11,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Three windows' worth per sensor, pushed in scrambled order.
	order := []int{7, 2, 11, 0, 9, 4, 1, 10, 5, 8, 3, 6} // 12 readings over 3 s
	for slot := 0; slot < 2; slot++ {
		items := make([]Item, 0, len(order))
		for _, k := range order {
			items = append(items, Item{
				Value: 1,
				Ts:    epoch.Add(time.Duration(k) * 250 * time.Millisecond),
			})
		}
		if err := d.Ingest(SourceID(fmt.Sprintf("sensor-%d", slot)), items...); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	res, err := d.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("closed %d windows, want 3", len(res.Windows))
	}
	for i, w := range res.Windows {
		wantStart := epoch.Add(time.Duration(i) * time.Second)
		if !w.Start.Equal(wantStart) || !w.End.Equal(wantStart.Add(time.Second)) {
			t.Fatalf("window %d bounds [%v, %v), want start %v", i, w.Start, w.End, wantStart)
		}
		if got := w.Result(Count).Estimate.Value; got != 8 { // 4 readings × 2 sensors
			t.Fatalf("window %d count %.1f, want 8", i, got)
		}
	}
	if res.LateDropped != 0 {
		t.Fatalf("dropped %d in-horizon records", res.LateDropped)
	}

	// The simulator windows every strategy by event time: the streaming SRS
	// edges forward at once into the root's windows. At a keep probability
	// of 1 nothing is dropped, so the COUNT identity holds exactly.
	sim, err := Simulate(Config{Strategy: SRS, Fraction: 1, EventTime: true, Queries: []QueryKind{Count}}, gaussianSources(5, 2000), time.Second)
	if err != nil {
		t.Fatalf("Simulate(SRS, EventTime): %v", err)
	}
	if got := sim.TotalEstimate(Count); got != float64(sim.Produced) {
		t.Fatalf("simulated SRS count %.1f, want the %d generated", got, sim.Produced)
	}
}

// TestOpenEventTimeLateDrop pins the facade's late-data surface: a record
// pushed past the horizon shows up in LateDropped (and in Snapshot), never
// in a closed window.
func TestOpenEventTimeLateDrop(t *testing.T) {
	epoch := time.Now().Truncate(time.Second)
	d, err := Open(context.Background(), Config{
		// One source feeding the root directly: with the idle exclusion
		// disabled, every statically-expected producer must actually speak,
		// so the tree must not contain unused source slots.
		Tree:            SingleNode(1),
		Fraction:        1,
		Queries:         []QueryKind{Count},
		Window:          10 * time.Millisecond,
		EventTime:       true,
		AllowedLateness: 0,
		IdleTimeout:     -1, // watermark-driven only: the test controls every close
		Seed:            3,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// In-order stream pushes the watermark to 4 s: windows 0–2 close.
	items := make([]Item, 16)
	for k := range items {
		items[k] = Item{Value: 1, Ts: epoch.Add(time.Duration(k) * 250 * time.Millisecond)}
	}
	if err := d.Ingest("sensor", items...); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	// Wait until the straggler's window has actually closed (the root closes
	// windows as its watermark crosses them; RootProcessed alone would only prove
	// the records arrived, not that window 0 is closed territory yet).
	deadline := time.Now().Add(10 * time.Second)
	for d.Snapshot().WindowsClosed < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Ingest("sensor", Item{Value: 1e9, Ts: epoch.Add(100 * time.Millisecond)}); err != nil {
		t.Fatalf("late Ingest: %v", err)
	}
	res, err := d.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.LateDropped != 1 {
		t.Fatalf("LateDropped = %d, want 1", res.LateDropped)
	}
	var total float64
	for _, w := range res.Windows {
		total += w.Result(Count).Estimate.Value
	}
	if total != 16 {
		t.Fatalf("windows hold %.0f records, want the 16 on-time ones", total)
	}
}

// TestOpsSurface opens a deployment with Config.OpsAddr, exercises all
// three HTTP endpoints against the live pipeline, and verifies the surface
// dies with the Deployment.
func TestOpsSurface(t *testing.T) {
	cfg := deployConfig()
	cfg.OpsAddr = "127.0.0.1:0"
	d, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	addr := d.OpsAddr()
	if addr == "" {
		t.Fatal("OpsAddr empty after Open with Config.OpsAddr")
	}
	if _, err := d.ServeOps("127.0.0.1:0"); !errors.Is(err, ErrOpsServing) {
		t.Fatalf("second ServeOps = %v, want ErrOpsServing", err)
	}

	pushSources(t, d, 7, 4000)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/health")
	if code != http.StatusOK {
		t.Fatalf("GET /health = %d: %s", code, body)
	}
	if !strings.Contains(body, `"lifecycle"`) || !strings.Contains(body, `"ingest"`) {
		t.Fatalf("health body missing components: %s", body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"approxiot_produced_total 4000",
		"approxiot_up 1",
		"approxiot_bandwidth_bytes_total{topic=",
		"approxiot_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}

	code, body = get("/metrics/query?window=1s")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics/query = %d: %s", code, body)
	}
	if !strings.Contains(body, `"points"`) {
		t.Fatalf("query body missing points: %s", body)
	}

	if _, err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close waits for the ops teardown, so the port is already released.
	if _, err := http.Get("http://" + addr + "/health"); err == nil {
		t.Fatal("ops surface still serving after Close")
	}
	if _, err := d.ServeOps("127.0.0.1:0"); !errors.Is(err, ErrOpsServing) && !errors.Is(err, ErrClosed) {
		t.Fatalf("ServeOps after Close = %v, want ErrOpsServing or ErrClosed", err)
	}
}

// TestDrainTimeoutKnob verifies the facade plumbs Config.DrainTimeout to
// the session and surfaces ErrDrainTimeout: a census-sampling run with a
// backlog in flight cannot quiesce before a deadline that has passed by the
// drain's first probe.
func TestDrainTimeoutKnob(t *testing.T) {
	d, err := Open(context.Background(), Config{
		Strategy:     Native,
		Window:       25 * time.Millisecond,
		Seed:         7,
		DrainTimeout: time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A big backlog against a root that has to process it exactly: the drain
	// needs three quiescent probes a quarter window apart, and the deadline
	// has passed by the first.
	items := make([]Item, 20000)
	for k := range items {
		items[k] = Item{Value: 1}
	}
	if err := d.Ingest("wedge", items...); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	res, err := d.Close()
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Close = %v, want ErrDrainTimeout", err)
	}
	if !res.DrainTimedOut {
		t.Fatal("DrainTimedOut unset despite ErrDrainTimeout")
	}
}
