package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
)

// sessionConfig is liveConfig without the batch-only fields: sessions are
// push-fed, so Source/Items stay zero.
func sessionConfig(fraction float64) LiveConfig {
	return LiveConfig{
		Spec:       topology.Testbed(),
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: fraction},
		Window:     30 * time.Millisecond,
		Queries:    []query.Kind{query.Sum, query.Count},
		Seed:       3,
	}
}

// pushGenerated drives the session's Ingester valves with exactly the item
// stream the RunLive wrapper's built-in client would produce for (seed,
// items): same generators, same chunking, same quota split. Returns when
// every slot's quota is pushed.
func pushGenerated(t *testing.T, s *LiveSession, seed uint64, items int64) {
	t.Helper()
	spec := s.plan.Spec
	source := microSource(seed, 1000)
	perSource := items / int64(spec.Sources)
	remainder := items % int64(spec.Sources)
	chunk := s.cfg.Window / 4
	var wg sync.WaitGroup
	for slot := 0; slot < spec.Sources; slot++ {
		quota := perSource
		if int64(slot) < remainder {
			quota++
		}
		ing, err := s.Ingester(slot)
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

// TestSessionEndToEnd is the acceptance path: open a deployment, push items,
// receive window results over the subscription while the run is in flight,
// read a mid-run snapshot, and get a final LiveResult from Close equivalent
// to the legacy Run path at the same seed and volume.
func TestSessionEndToEnd(t *testing.T) {
	const items = 16000
	cfg := sessionConfig(0.25)
	// Pace the pushers so production spans ~10 windows: without a rate the
	// whole volume lands inside one 30 ms window and only a single window
	// result can ever close.
	cfg.SourceRate = 6000
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	if got := s.State(); got != StateIngesting {
		t.Fatalf("state after open = %v, want ingesting", got)
	}

	// Subscribe before pushing so no window can be missed.
	windows := s.Windows()
	var live []WindowResult
	seen2 := make(chan struct{})
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

	pushGenerated(t, s, cfg.Seed, items)

	// ≥2 window results must arrive while the run is still in flight —
	// before Close is even called.
	select {
	case <-seen2:
	case <-time.After(10 * time.Second):
		t.Fatal("did not receive 2 window results while ingesting")
	}

	// Mid-run snapshot: the telemetry that used to exist only at exit.
	snap := s.Snapshot()
	if snap.State != StateIngesting {
		t.Fatalf("snapshot state = %v, want ingesting", snap.State)
	}
	if snap.Produced == 0 || snap.RootProcessed == 0 {
		t.Fatalf("snapshot counters empty: %+v", snap)
	}
	if snap.WindowsClosed < 2 {
		t.Fatalf("snapshot windows = %d, want ≥ 2", snap.WindowsClosed)
	}
	if snap.Latency.Count() == 0 {
		t.Fatal("snapshot latency histogram empty")
	}
	if len(snap.Bandwidth) == 0 || len(snap.Nodes) == 0 {
		t.Fatalf("snapshot bandwidth/nodes empty: %d links, %d nodes", len(snap.Bandwidth), len(snap.Nodes))
	}
	if snap.Throughput <= 0 {
		t.Fatalf("snapshot throughput = %v, want > 0", snap.Throughput)
	}

	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	collectWG.Wait() // Windows channel closed by Close

	// Equivalence with the legacy batch path at the same seed/volume: the
	// same LiveConfig with the generators the pusher above replayed.
	legacyCfg := sessionConfig(0.25)
	legacyCfg.Source = microSource(cfg.Seed, 1000)
	legacyCfg.Items = items
	legacy, err := RunLive(legacyCfg)
	if err != nil {
		t.Fatalf("legacy RunLive: %v", err)
	}
	if res.Produced != items || legacy.Produced != items {
		t.Fatalf("produced %d (session) / %d (legacy), want %d", res.Produced, legacy.Produced, items)
	}
	if rel := math.Abs(res.TruthSum-legacy.TruthSum) / math.Abs(legacy.TruthSum); rel > 1e-12 {
		t.Fatalf("truth diverged: %g (session) vs %g (legacy), rel %g", res.TruthSum, legacy.TruthSum, rel)
	}
	for name, r := range map[string]*LiveResult{"session": res, "legacy": legacy} {
		if rel := math.Abs(r.EstimateCount-float64(r.Produced)) / float64(r.Produced); rel > 1e-9 {
			t.Fatalf("%s: estimated count %.1f vs produced %d", name, r.EstimateCount, r.Produced)
		}
		if loss := math.Abs(r.EstimateSum-r.TruthSum) / r.TruthSum; loss > 0.1 {
			t.Fatalf("%s: accuracy loss %.3f, implausible at fraction 0.25", name, loss)
		}
	}

	// Every subscribed window is in the final result, in order.
	if len(live) == 0 || len(live) > len(res.Windows) {
		t.Fatalf("subscription saw %d windows, result has %d", len(live), len(res.Windows))
	}
	for i, w := range live {
		if !w.At.Equal(res.Windows[i].At) || w.SampleSize != res.Windows[i].SampleSize {
			t.Fatalf("subscribed window %d differs from result window", i)
		}
	}
	if s.State() != StateClosed {
		t.Fatalf("state after close = %v, want closed", s.State())
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing after a generous deadline. The runtime reclaims goroutines
// asynchronously, so a single instantaneous read would flake.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; cheap in tests
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSessionCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := OpenLive(ctx, sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	// Keep pushes in flight so cancellation genuinely lands mid-window.
	pusherDone := make(chan struct{})
	go func() {
		defer close(pusherDone)
		ing, err := s.Ingester(0)
		if err != nil {
			t.Error(err)
			return
		}
		gen := microSource(9, 1000)(0)
		now := time.Now()
		for {
			batch := gen.Generate(now, s.cfg.Window/4)
			now = now.Add(s.cfg.Window / 4)
			if err := ing.Push(batch...); err != nil {
				return // session aborted — expected
			}
		}
	}()
	time.Sleep(4 * s.cfg.Window) // let a few windows close with data flowing

	cancel()
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session did not reach closed after cancel")
	}
	<-pusherDone
	if s.State() != StateClosed {
		t.Fatalf("state = %v, want closed", s.State())
	}
	res, err := s.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel err = %v, want context.Canceled", err)
	}
	// Already-closed windows keep their exact-count estimates: the abort
	// dropped in-flight data, so the estimated input can only be ≤ what was
	// produced — never more, and each retained window is internally intact.
	if res.EstimateCount > float64(res.Produced)*(1+1e-9) {
		t.Fatalf("estimate count %.1f exceeds produced %d after abort", res.EstimateCount, res.Produced)
	}
	waitGoroutines(t, before+2) // the pusher above may still be unwinding
}

func TestSessionCancelAfterQuiesceKeepsInvariant(t *testing.T) {
	// When everything in flight has drained BEFORE the cancel, the abort
	// path must still deliver the full Eq. 8 invariant: estimated input ==
	// produced, because the final partial window is closed from fully
	// processed root Θ.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := OpenLive(ctx, sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	pushGenerated(t, s, 3, 4000)
	// Wait until the pipeline is quiescent (the probe Close's drain uses).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !s.quiescent() {
		time.Sleep(s.cfg.Window / 4)
	}
	cancel()
	<-s.Done()
	res, err := s.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Produced != 4000 {
		t.Fatalf("produced %d, want 4000", res.Produced)
	}
	if rel := math.Abs(res.EstimateCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("estimated count %.1f vs produced %d after quiesced cancel", res.EstimateCount, res.Produced)
	}
	waitGoroutines(t, before)
}

func TestSessionDoubleCloseIdempotent(t *testing.T) {
	s, err := OpenLive(context.Background(), sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	pushGenerated(t, s, 3, 2000)
	res1, err1 := s.Close()
	res2, err2 := s.Close()
	if res1 != res2 {
		t.Fatalf("double Close returned distinct results: %p vs %p", res1, res2)
	}
	if err1 != nil || err2 != nil {
		t.Fatalf("double Close errs = %v, %v", err1, err2)
	}
	// Concurrent Close during the first is also safe: exercised by calling
	// from two goroutines on a fresh session.
	s2, err := OpenLive(context.Background(), sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	var wg sync.WaitGroup
	results := make([]*LiveResult, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = s2.Close()
		}()
	}
	wg.Wait()
	if results[0] != results[1] {
		t.Fatal("concurrent Close returned distinct results")
	}
}

func TestSessionIngestAfterClose(t *testing.T) {
	s, err := OpenLive(context.Background(), sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	ing, err := s.Ingester(0)
	if err != nil {
		t.Fatalf("Ingester: %v", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ing.Push(microItems(8)...); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after Close err = %v, want ErrSessionClosed", err)
	}
	if err := s.Ingest("late-stratum", microItems(8)...); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Ingest after Close err = %v, want ErrSessionClosed", err)
	}
	// A Windows subscription taken after close is immediately closed, not
	// a channel that blocks forever.
	if _, ok := <-s.Windows(); ok {
		t.Fatal("Windows after close delivered a value")
	}
}

// microItems builds n raw items for push tests.
func microItems(n int) []stream.Item {
	items := make([]stream.Item, n)
	for i := range items {
		items[i] = stream.Item{Source: "push-test", Value: float64(i)}
	}
	return items
}

func TestSessionIngesterValidation(t *testing.T) {
	s, err := OpenLive(context.Background(), sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	defer s.Close()
	if _, err := s.Ingester(-1); !errors.Is(err, ErrBadSourceSlot) {
		t.Fatalf("Ingester(-1) err = %v, want ErrBadSourceSlot", err)
	}
	if _, err := s.Ingester(s.plan.Spec.Sources); !errors.Is(err, ErrBadSourceSlot) {
		t.Fatalf("Ingester(N) err = %v, want ErrBadSourceSlot", err)
	}
	a, _ := s.Ingester(2)
	b, _ := s.Ingester(2)
	if a != b {
		t.Fatal("Ingester not cached per slot")
	}
	// Ingest routes a stratum to a stable slot.
	if s.slotFor("sensor-x") != s.slotFor("sensor-x") {
		t.Fatal("slotFor not stable")
	}
}

func TestSessionSetTarget(t *testing.T) {
	s, err := OpenLive(context.Background(), sessionConfig(0.5))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	if err := s.SetTarget(0.05); !errors.Is(err, ErrNotAdaptive) {
		t.Fatalf("SetTarget on frozen session err = %v, want ErrNotAdaptive", err)
	}
	s.Close()

	cfg := sessionConfig(0.5)
	cfg.Cost = nil
	cfg.Feedback = NewFeedbackController(0.2, 0.02)
	sa, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive adaptive: %v", err)
	}
	defer sa.Close()
	if got := sa.Target(); got != 0.02 {
		t.Fatalf("Target = %v, want 0.02", got)
	}
	if err := sa.SetTarget(0.1); err != nil {
		t.Fatalf("SetTarget: %v", err)
	}
	if got := sa.Target(); got != 0.1 {
		t.Fatalf("Target after SetTarget = %v, want 0.1", got)
	}
	if got := cfg.Feedback.Target(); got != 0.1 {
		t.Fatalf("controller target = %v, want passthrough 0.1", got)
	}
}

// TestRunLiveMatchesPreRefactorFixtures pins the compatibility wrapper to
// outputs first captured from the monolithic RunLive immediately before the
// session refactor (same seeds, volumes, and parallelism). Produced and the
// Eq. 8 exact-count invariant must hold exactly. TruthSum is the sum of the
// generated workload, so it follows the xrand engine the generator draws
// from: the two values below were re-captured when that engine became
// xoshiro256** (the refactor-era ones came from math/rand's source). It is
// checked to 1e-12 relative — the session accumulates per-slot truth in
// deterministic slot order, while the old runner folded per-goroutine sums in
// completion order, so the totals may differ in the last few ulps.
func TestRunLiveMatchesPreRefactorFixtures(t *testing.T) {
	fixtures := []struct {
		seed     uint64
		items    int64
		parts    int
		truthSum float64 // captured from the current xrand engine
	}{
		{seed: 3, items: 16000, parts: 1, truthSum: math.Float64frombits(0x41BA2E454335BFCD)},
		{seed: 7, items: 12000, parts: 4, truthSum: math.Float64frombits(0x41B3D553C354D2AB)},
	}
	for _, f := range fixtures {
		cfg := LiveConfig{
			Spec:       topology.Testbed(),
			Source:     microSource(f.seed, 1000),
			NewSampler: WHSFactory(),
			Cost:       EffectiveFractionBudget{Fraction: 0.25},
			Items:      f.items,
			Window:     30 * time.Millisecond,
			Queries:    []query.Kind{query.Sum, query.Count},
			Seed:       f.seed,
			Partitions: f.parts,
			RootShards: f.parts,
		}
		res, err := RunLive(cfg)
		if err != nil {
			t.Fatalf("seed %d: RunLive: %v", f.seed, err)
		}
		if res.Produced != f.items {
			t.Fatalf("seed %d: produced %d, want %d (pre-refactor)", f.seed, res.Produced, f.items)
		}
		if rel := math.Abs(res.EstimateCount-float64(f.items)) / float64(f.items); rel > 1e-9 {
			t.Fatalf("seed %d: estimate count %.3f, want %d exactly (pre-refactor invariant)", f.seed, res.EstimateCount, f.items)
		}
		if rel := math.Abs(res.TruthSum-f.truthSum) / math.Abs(f.truthSum); rel > 1e-12 {
			t.Fatalf("seed %d: truth %x, want %x (pre-refactor, rel %g)",
				f.seed, res.TruthSum, f.truthSum, rel)
		}
	}
}

func TestSessionBackpressureBounds(t *testing.T) {
	// A pusher that vastly outruns the pipeline must be throttled: the leaf
	// topic's backlog stays near the high-water mark instead of growing with
	// everything pushed.
	cfg := sessionConfig(0.5)
	cfg.MaxIngestLag = 512
	cfg.RootWork = 2 * time.Microsecond // slow the pipeline down
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	ing, err := s.Ingester(0)
	if err != nil {
		t.Fatalf("Ingester: %v", err)
	}
	items := make([]stream.Item, 256)
	for i := range items {
		items[i] = stream.Item{Source: "bp", Value: 1}
	}
	for k := 0; k < 64; k++ {
		if err := ing.Push(items...); err != nil {
			t.Fatalf("Push: %v", err)
		}
		lag, err := s.bus.GroupLag(ing.topic, ing.lagGroup)
		if err != nil {
			t.Fatalf("GroupLag: %v", err)
		}
		// Push admits at most one batch above the mark before blocking.
		if lag > int64(cfg.MaxIngestLag)+int64(len(items)) {
			t.Fatalf("backlog %d far above high-water %d", lag, cfg.MaxIngestLag)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSessionOnWindowHookRuns(t *testing.T) {
	var mu sync.Mutex
	var hooked int
	var snapWindows int
	cfg := sessionConfig(0.5)
	var sess *LiveSession
	cfg.OnWindow = func(WindowResult) {
		mu.Lock()
		hooked++
		mu.Unlock()
		// Snapshot from inside the hook must not deadlock: closeWindow
		// holds windowMu while calling here, so Snapshot cannot take it.
		snapWindows = sess.Snapshot().WindowsClosed
	}
	s, err := OpenLive(context.Background(), cfg)
	sess = s
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	pushGenerated(t, s, 3, 4000)
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hooked != len(res.Windows) {
		t.Fatalf("OnWindow ran %d times for %d windows", hooked, len(res.Windows))
	}
	if snapWindows != len(res.Windows) {
		t.Fatalf("in-hook snapshot saw %d windows at the last close, result has %d", snapWindows, len(res.Windows))
	}
}

// BenchmarkSessionIngest measures the push hot path — stamp, batch, truth,
// publish, backpressure probe — through an Ingester valve, with the tree
// consuming concurrently. The tracked number for the session API, alongside
// BenchmarkLiveAdaptive for the control plane.
func BenchmarkSessionIngest(b *testing.B) {
	cfg := LiveConfig{
		Spec:       topology.SingleNode(1),
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: 0.1},
		Window:     50 * time.Millisecond,
		Queries:    []query.Kind{query.Sum},
		Seed:       1,
	}
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ing, err := s.Ingester(0)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 512
	items := make([]stream.Item, batch)
	for i := range items {
		items[i] = stream.Item{Source: "bench", Value: float64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := ing.Push(items...); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*batch/elapsed.Seconds(), "items/s")
	}
	if _, err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestSessionSnapshotDuringClose races snapshot readers against the whole
// shutdown sequence: the closed-run fields (Elapsed, and the Throughput
// derived from it) must come from the atomically-published final result,
// never from a half-assembled one. Run under -race this is the regression
// guard for the Snapshot/Close lifecycle race; the semantic assertion —
// any snapshot that observes StateClosed must report exactly the final
// Elapsed — holds at any interleaving.
func TestSessionSnapshotDuringClose(t *testing.T) {
	for round := 0; round < 3; round++ {
		s, err := OpenLive(context.Background(), sessionConfig(0.3))
		if err != nil {
			t.Fatalf("OpenLive: %v", err)
		}
		pushGenerated(t, s, 11, 4000)
		var closedSnaps []LiveSnapshot
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				snap := s.Snapshot()
				if snap.State == StateClosed {
					closedSnaps = append(closedSnaps, snap)
					if len(closedSnaps) > 3 {
						return
					}
				}
				select {
				case <-s.Done():
					return
				default:
				}
			}
		}()
		res, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		<-done
		for _, snap := range closedSnaps {
			if snap.Elapsed != res.Elapsed {
				t.Fatalf("closed-state snapshot Elapsed = %v, final result has %v", snap.Elapsed, res.Elapsed)
			}
		}
		// And after Close returns, a fresh snapshot agrees with the result.
		snap := s.Snapshot()
		if snap.State != StateClosed || snap.Elapsed != res.Elapsed {
			t.Fatalf("post-close snapshot = {%v %v}, want {closed %v}", snap.State, snap.Elapsed, res.Elapsed)
		}
	}
}

// TestSessionDrainTimeoutWedgedPipeline wedges the pipeline with a
// saturated root — RootWork per-item spin far exceeding the drain budget —
// and asserts the timeout is surfaced instead of expiring silently:
// Close and Err return ErrDrainTimeout and the result is marked
// DrainTimedOut, so a caller can no longer mistake a partial drain for a
// clean one.
func TestSessionDrainTimeoutWedgedPipeline(t *testing.T) {
	cfg := sessionConfig(1.0) // census: every pushed item reaches the root
	cfg.Window = 25 * time.Millisecond
	cfg.RootWork = 15 * time.Millisecond // ~2s of root work for 150 items
	cfg.DrainTimeout = 200 * time.Millisecond
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	items := make([]stream.Item, 150)
	now := time.Now()
	for i := range items {
		items[i] = stream.Item{Ts: now, Value: 1}
	}
	if err := s.Ingest("wedge", items...); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	// Let the edge layers forward into the root topic so the backlog sits
	// where the drain probe watches it.
	time.Sleep(100 * time.Millisecond)
	res, err := s.Close()
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Close error = %v, want ErrDrainTimeout", err)
	}
	if !errors.Is(s.Err(), ErrDrainTimeout) {
		t.Fatalf("Err() = %v, want ErrDrainTimeout", s.Err())
	}
	if !res.DrainTimedOut {
		t.Fatal("LiveResult.DrainTimedOut = false after a timed-out drain")
	}
}

// TestSessionDrainTimeoutCleanRun is the negative control: a healthy
// pipeline drains within the budget and reports nothing.
func TestSessionDrainTimeoutCleanRun(t *testing.T) {
	cfg := sessionConfig(0.5)
	cfg.DrainTimeout = 30 * time.Second
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	pushGenerated(t, s, 5, 2000)
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.DrainTimedOut {
		t.Fatal("clean run marked DrainTimedOut")
	}
}

// TestSnapshotHealthFields covers the health-probe fields the ops surface
// reads: configuration echoes, ingest lag, and activity instants.
func TestSnapshotHealthFields(t *testing.T) {
	cfg := sessionConfig(0.5)
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	snap := s.Snapshot()
	if snap.Window != cfg.Window {
		t.Errorf("Window = %v, want %v", snap.Window, cfg.Window)
	}
	if snap.MaxIngestLag != defaultMaxIngestLag {
		t.Errorf("MaxIngestLag = %d, want default %d", snap.MaxIngestLag, defaultMaxIngestLag)
	}
	if snap.EventTime || snap.Adaptive {
		t.Errorf("EventTime/Adaptive = %v/%v on a plain processing-time run", snap.EventTime, snap.Adaptive)
	}
	if snap.Start.IsZero() || snap.LastActivity.IsZero() {
		t.Error("Start/LastActivity zero on an open session")
	}
	pushGenerated(t, s, 9, 3000)
	if got := s.Snapshot().IngestLag; got < 0 {
		t.Errorf("IngestLag = %d, want ≥ 0", got)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.Snapshot().IngestLag; got != 0 {
		t.Errorf("IngestLag = %d after close, want 0", got)
	}
}
