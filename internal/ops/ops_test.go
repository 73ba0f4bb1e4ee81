package ops

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
)

// fakeSource serves a canned snapshot.
type fakeSource struct{ snap core.LiveSnapshot }

func (f *fakeSource) Snapshot() core.LiveSnapshot { return f.snap }

// healthySnapshot is a plausible mid-run ingesting snapshot.
func healthySnapshot(now time.Time) core.LiveSnapshot {
	h := metrics.NewHistogram()
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	return core.LiveSnapshot{
		State:         core.StateIngesting,
		Produced:      1000,
		RootProcessed: 400,
		WindowsClosed: 7,
		Elapsed:       2 * time.Second,
		Throughput:    500,
		Latency:       h,
		Bandwidth:     map[string]int64{"t0-e1": 2048, "t1-root": 512},
		Nodes: map[string]core.NodeTelemetry{
			"edge1-0": {Observed: 1000, Emitted: 400, Intervals: 7, Throughput: 500, Wakeups: streams.Wakeups{Data: 90, Deadline: 4, Sync: 1}},
			"root-0":  {Observed: 400, Emitted: 0, Intervals: 7, Throughput: 200},
		},
		Window:       50 * time.Millisecond,
		MaxIngestLag: 8192,
		IngestLag:    12,
		Start:        now.Add(-2 * time.Second),
		LastActivity: now.Add(-10 * time.Millisecond),
	}
}

func TestMetricsExposition(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	src := &fakeSource{snap: healthySnapshot(now)}
	srv := NewServer(src, Config{now: func() time.Time { return now }})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE approxiot_produced_total counter",
		"approxiot_produced_total 1000",
		"approxiot_root_processed_total 400",
		"approxiot_windows_closed_total 7",
		"approxiot_up 1",
		`approxiot_state{state="ingesting"} 1`,
		`approxiot_state{state="closed"} 0`,
		"approxiot_ingest_lag_records 12",
		`approxiot_bandwidth_bytes_total{topic="t0-e1"} 2048`,
		`approxiot_bandwidth_bytes_total{topic="t1-root"} 512`,
		`approxiot_node_observed_total{node="edge1-0"} 1000`,
		`approxiot_node_emitted_total{node="edge1-0"} 400`,
		`approxiot_node_intervals_total{node="root-0"} 7`,
		"# TYPE approxiot_node_wakeups_total counter",
		`approxiot_node_wakeups_total{node="edge1-0",cause="data"} 90`,
		`approxiot_node_wakeups_total{node="edge1-0",cause="deadline"} 4`,
		`approxiot_node_wakeups_total{node="edge1-0",cause="sync"} 1`,
		`approxiot_node_wakeups_total{node="root-0",cause="deadline"} 0`,
		"# TYPE approxiot_latency_seconds histogram",
		`approxiot_latency_seconds_bucket{le="+Inf"} 3`,
		"approxiot_latency_seconds_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Histogram buckets must be cumulative: the two 3ms observations land
	// below the 40ms one, so some bucket line carries count 2 before the
	// final cumulative 3.
	if !strings.Contains(body, "} 2\n") {
		t.Errorf("expected an intermediate cumulative bucket count of 2:\n%s", body)
	}
	// _sum is 46ms in seconds.
	if !strings.Contains(body, "approxiot_latency_seconds_sum 0.046") {
		t.Errorf("expected latency sum 0.046, body:\n%s", body)
	}
	// Adaptive gauges absent when not adaptive.
	if strings.Contains(body, "adaptive_fraction") {
		t.Errorf("adaptive gauges exported for a non-adaptive run")
	}
}

func TestMetricsAdaptiveAndEventTimeGauges(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	snap := healthySnapshot(now)
	snap.Adaptive = true
	snap.Fraction = 0.25
	snap.Target = 0.05
	snap.EventTime = true
	snap.Watermark = now.Add(-1500 * time.Millisecond)
	srv := NewServer(&fakeSource{snap: snap}, Config{now: func() time.Time { return now }})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"approxiot_adaptive_fraction 0.25",
		"approxiot_adaptive_target 0.05",
		"approxiot_watermark_lag_seconds 1.5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	ls := labels{{"topic", "a\"b\\c\nd"}}
	want := `{topic="a\"b\\c\nd"}`
	if got := ls.String(); got != want {
		t.Fatalf("labels.String() = %q, want %q", got, want)
	}
}

func TestHealthStates(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	t.Run("ingesting ok", func(t *testing.T) {
		rep := buildHealth(healthySnapshot(now), now)
		if rep.Status != StatusOK {
			t.Fatalf("status = %q, want ok: %+v", rep.Status, rep.Components)
		}
		for _, name := range []string{"lifecycle", "ingest", "progress"} {
			if _, ok := rep.Components[name]; !ok {
				t.Errorf("missing component %q", name)
			}
		}
		if _, ok := rep.Components["watermark"]; ok {
			t.Errorf("watermark check present for a processing-time run")
		}
	})

	t.Run("draining degraded", func(t *testing.T) {
		snap := healthySnapshot(now)
		snap.State = core.StateDraining
		rep := buildHealth(snap, now)
		if rep.Status != StatusDegraded {
			t.Fatalf("status = %q, want degraded", rep.Status)
		}
	})

	t.Run("closed fails", func(t *testing.T) {
		snap := healthySnapshot(now)
		snap.State = core.StateClosed
		snap.IngestLag = 0
		rep := buildHealth(snap, now)
		if rep.Status != StatusFail {
			t.Fatalf("status = %q, want fail", rep.Status)
		}
	})

	t.Run("backpressure high-water degraded", func(t *testing.T) {
		snap := healthySnapshot(now)
		snap.IngestLag = int64(snap.MaxIngestLag)
		rep := buildHealth(snap, now)
		if rep.Components["ingest"].Status != StatusDegraded {
			t.Fatalf("ingest = %+v, want degraded", rep.Components["ingest"])
		}
	})

	t.Run("stall fails", func(t *testing.T) {
		snap := healthySnapshot(now)
		snap.LastActivity = now.Add(-time.Minute) // backlog + long silence
		rep := buildHealth(snap, now)
		if rep.Components["progress"].Status != StatusFail {
			t.Fatalf("progress = %+v, want fail", rep.Components["progress"])
		}
		if rep.Status != StatusFail {
			t.Fatalf("status = %q, want fail", rep.Status)
		}
	})

	t.Run("idle without backlog stays ok", func(t *testing.T) {
		snap := healthySnapshot(now)
		snap.IngestLag = 0
		snap.LastActivity = now.Add(-time.Minute)
		rep := buildHealth(snap, now)
		if rep.Components["progress"].Status != StatusOK {
			t.Fatalf("progress = %+v, want ok for an idle deployment", rep.Components["progress"])
		}
	})

	t.Run("blocked watermark degraded", func(t *testing.T) {
		snap := healthySnapshot(now)
		snap.EventTime = true
		// Watermark zero with traffic: an expected producer is unheard.
		rep := buildHealth(snap, now)
		if rep.Components["watermark"].Status != StatusDegraded {
			t.Fatalf("watermark = %+v, want degraded", rep.Components["watermark"])
		}
	})
}

func TestHealthEndpointStatusCodes(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	src := &fakeSource{snap: healthySnapshot(now)}
	srv := NewServer(src, Config{now: func() time.Time { return now }})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy GET /health = %d, want 200", rec.Code)
	}
	var rep HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("health body not JSON: %v", err)
	}
	if rep.Status != StatusOK || rep.State != "ingesting" {
		t.Fatalf("report = %+v", rep)
	}

	src.snap.State = core.StateClosed
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed GET /health = %d, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/health", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /health = %d, want 405", rec.Code)
	}
}

// syntheticSamples builds n samples at the given cadence: produced rises
// 100/sample, bandwidth 1000/sample.
func syntheticSamples(start time.Time, n int, cadence time.Duration) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{
			t:             start.Add(time.Duration(i) * cadence),
			produced:      int64(i) * 100,
			rootProcessed: int64(i) * 40,
			windowsClosed: int64(i),
			bandwidth:     int64(i) * 1000,
			ingestLag:     int64(i % 5),
			fraction:      0.5,
		}
	}
	return out
}

func TestRingEvictsAtCapacity(t *testing.T) {
	r := newRing(4)
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, s := range syntheticSamples(start, 10, time.Second) {
		r.add(s)
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want capacity 4", len(got))
	}
	// The four newest samples, in chronological order.
	for i, s := range got {
		wantT := start.Add(time.Duration(6+i) * time.Second)
		if !s.t.Equal(wantT) {
			t.Fatalf("sample %d at %v, want %v", i, s.t, wantT)
		}
	}
}

func TestQueryWindowedRates(t *testing.T) {
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	// 61 samples at 1s: 60s retained, produced +100/s.
	samples := syntheticSamples(start, 61, time.Second)
	resp := buildQuery(samples, 10*time.Second, time.Minute)
	if resp.Clamped {
		t.Fatalf("lookback equals retention, should not clamp: %+v", resp)
	}
	if len(resp.Points) != 6 {
		t.Fatalf("got %d points, want 6: %+v", len(resp.Points), resp.Points)
	}
	for i, p := range resp.Points {
		if p.ProducedPerSecond != 100 {
			t.Errorf("point %d produced rate = %v, want 100", i, p.ProducedPerSecond)
		}
		if p.BandwidthBytesPerSec != 1000 {
			t.Errorf("point %d bandwidth rate = %v, want 1000", i, p.BandwidthBytesPerSec)
		}
	}
	last := resp.Points[len(resp.Points)-1]
	if !last.Time.Equal(start.Add(60 * time.Second)) {
		t.Fatalf("last point at %v, want the newest sample", last.Time)
	}
}

func TestQueryLookbackClampedToRetention(t *testing.T) {
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	// 5 minutes retained, 2 hours asked.
	samples := syntheticSamples(start, 301, time.Second)
	resp := buildQuery(samples, time.Minute, 2*time.Hour)
	if !resp.Clamped {
		t.Fatalf("expected clamping: %+v", resp)
	}
	if resp.Lookback != "5m0s" || resp.Retained != "5m0s" {
		t.Fatalf("lookback %q retained %q, want both 5m0s", resp.Lookback, resp.Retained)
	}
	if len(resp.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(resp.Points))
	}
}

func TestQueryEmptyAndSparseHistory(t *testing.T) {
	resp := buildQuery(nil, time.Minute, time.Hour)
	if len(resp.Points) != 0 || resp.Retained != "0s" {
		t.Fatalf("empty history: %+v", resp)
	}
	one := syntheticSamples(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), 1, time.Second)
	resp = buildQuery(one, time.Minute, time.Hour)
	if len(resp.Points) != 0 {
		t.Fatalf("single sample cannot produce a rate: %+v", resp)
	}
}

func TestQueryEndpoint(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	src := &fakeSource{snap: healthySnapshot(now)}
	srv := NewServer(src, Config{now: func() time.Time { return now }})
	// Seed a little history by hand (Start would race the canned clock).
	for i := 0; i < 10; i++ {
		s := newSample(now.Add(time.Duration(i)*time.Second), src.Snapshot())
		srv.ring.add(s)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/query?window=2s&lookback=30s", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics/query = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("query body not JSON: %v", err)
	}
	if !resp.Clamped {
		t.Fatalf("9s retained vs 30s asked should clamp: %+v", resp)
	}
	if resp.Window != "2s" {
		t.Fatalf("window echoed as %q", resp.Window)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/query?window=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad window = %d, want 400", rec.Code)
	}
}

func TestSamplerStartStop(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	src := &fakeSource{snap: healthySnapshot(now)}
	srv := NewServer(src, Config{Cadence: time.Millisecond, Capacity: 8})
	srv.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.ring.snapshot()) < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler never filled the ring: %d samples", len(srv.ring.snapshot()))
		}
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	n := len(srv.ring.snapshot())
	if n != 8 {
		t.Fatalf("ring holds %d samples, want capacity 8", n)
	}
	srv.Stop() // idempotent
}

func TestStopBeforeStart(t *testing.T) {
	srv := NewServer(&fakeSource{}, Config{})
	done := make(chan struct{})
	go func() { srv.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop before Start hung")
	}
}

// TestMetricsTransportFamilies checks the transport-counter families: absent
// without a Transport hook, present and live-polled with one — the
// multi-process node shape, where /metrics must also describe the process's
// own broker link.
func TestMetricsTransportFamilies(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	src := &fakeSource{snap: healthySnapshot(now)}

	bare := NewServer(src, Config{now: func() time.Time { return now }})
	rec := httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), "transport_bytes_out_total") {
		t.Fatal("transport families rendered without a Transport hook")
	}

	ctr := transport.Counters{BytesOut: 111, BytesIn: 222, RoundTrips: 66, Reconnects: 3, SendErrors: 4, PollErrors: 5}
	srv := NewServer(src, Config{
		now:       func() time.Time { return now },
		Transport: func() transport.Counters { return ctr },
	})
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"approxiot_transport_bytes_out_total 111",
		"approxiot_transport_bytes_in_total 222",
		"approxiot_transport_round_trips_total 66",
		"approxiot_transport_reconnects_total 3",
		"approxiot_transport_send_errors_total 4",
		"approxiot_transport_poll_errors_total 5",
		"# TYPE approxiot_transport_reconnects_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}

	// The hook is polled per scrape, not captured once.
	ctr.Reconnects = 9
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "approxiot_transport_reconnects_total 9") {
		t.Fatal("transport counters are stale: hook not polled per scrape")
	}
}

// TestNodeRootSnapshotServesQueryGauges renders a node-mode root tier's
// snapshot the way approxiot-node -ops does: the per-query gauges come from
// the last emitted window, and once the tier has closed its elapsed span and
// throughput stay put.
func TestNodeRootSnapshotServesQueryGauges(t *testing.T) {
	bus := transport.NewMem()
	defer bus.Close()
	cfg := core.LiveConfig{
		Spec: topology.TreeSpec{
			Sources: 2,
			Layers:  []topology.LayerSpec{{Name: "edge", Nodes: 1}, {Name: "root", Nodes: 1}},
			Window:  100 * time.Millisecond,
		},
		Bus:         bus,
		NewSampler:  core.WHSFactory(),
		Cost:        core.FractionBudget{Fraction: 1},
		Window:      10 * time.Millisecond,
		Queries:     []query.Kind{query.Sum, query.Count},
		Seed:        5,
		EventTime:   true,
		IdleTimeout: 30 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	root, err := core.OpenNode(ctx, cfg, core.NodeTier{Root: true})
	if err != nil {
		t.Fatalf("OpenNode(root): %v", err)
	}
	defer root.Close()
	leaf, err := core.OpenNode(ctx, cfg, core.NodeTier{Layers: []int{0}, Ingest: true})
	if err != nil {
		t.Fatalf("OpenNode(leaf): %v", err)
	}
	defer leaf.Close()

	epoch := time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)
	for slot := 0; slot < cfg.Spec.Sources; slot++ {
		items := make([]stream.Item, 200)
		for k := range items {
			items[k] = stream.Item{Value: float64(k % 7), Ts: epoch.Add(time.Duration(k) * 5 * time.Millisecond)}
		}
		if err := leaf.Push(slot, items...); err != nil {
			t.Fatalf("push slot %d: %v", slot, err)
		}
	}
	if err := leaf.FinishIngest(); err != nil {
		t.Fatalf("FinishIngest: %v", err)
	}
	if err := root.WaitDone(ctx); err != nil {
		t.Fatalf("root WaitDone: %v", err)
	}
	res := root.Close()
	if len(res.Windows) == 0 {
		t.Fatal("the root tier closed no windows")
	}

	snap := root.Snapshot()
	last := res.Windows[len(res.Windows)-1]
	if snap.LastWindow == nil || !snap.LastWindow.Start.Equal(last.Start) ||
		snap.LastWindow.SampleSize != last.SampleSize {
		t.Fatalf("snapshot LastWindow %+v, want the last emitted window (start %v, ζ %d)", snap.LastWindow, last.Start, last.SampleSize)
	}
	rec := httptest.NewRecorder()
	NewServer(root, Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`approxiot_query_estimate{kind="SUM"}`,
		`approxiot_query_estimate{kind="COUNT"}`,
		"approxiot_window_sample_size ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("node root /metrics lacks %q:\n%s", want, body)
		}
	}

	// The leaf tier's figures are frozen at its Close.
	leaf.Close()
	a := leaf.Snapshot()
	time.Sleep(20 * time.Millisecond)
	b := leaf.Snapshot()
	if a.Elapsed <= 0 || a.Elapsed != b.Elapsed || a.Throughput != b.Throughput {
		t.Fatalf("closed tier's elapsed %v → %v, throughput %v → %v: want both frozen", a.Elapsed, b.Elapsed, a.Throughput, b.Throughput)
	}
	if a.State != core.StateClosed {
		t.Fatalf("closed tier reports state %v", a.State)
	}
}
