package approxiot

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/ops"
)

// Deployment is a running live pipeline: the compiled tree instantiated over
// the in-memory broker, accepting pushed items and emitting window results
// until closed. Where Run is batch-shaped — generator-fed, fixed item count,
// blocks until drained — a Deployment is the long-lived handle a production
// edge-analytics service holds: open it once, push readings as they arrive,
// subscribe to results, observe telemetry mid-run, steer the adaptive
// controller, and shut down gracefully.
//
// Obtain one from Open. All methods are safe for concurrent use.
//
// Lifecycle: a Deployment is born ingesting. Close moves it through
// draining (pushes rejected, in-flight windows reach the root) to closed,
// returning the final LiveResult. Cancelling the Open context aborts
// directly to closed: in-flight data is dropped, but every window already
// closed keeps its exact-count estimates, and all goroutines exit. See
// ARCHITECTURE.md for the state diagram and which calls are safe in which
// state.
type Deployment struct {
	s *core.LiveSession

	// Operational surface (ServeOps): guarded by opsMu; opsDone closes
	// when the watcher has torn the server down after the session ends.
	opsMu   sync.Mutex
	opsSrv  *ops.Server
	opsHTTP *http.Server
	opsAddr string
	opsDone chan struct{}
}

// Session-layer types, re-exported. The implementations live in
// internal/core; downstream users interact through these aliases.
type (
	// Ingester is the push valve for one source slot: it stamps, batches,
	// paces (Config.SourceRate), backpressures (Config.MaxIngestLag), and
	// publishes items into the slot's leaf topic. Obtain one per slot from
	// Deployment.Ingester; pushes through one valve are serialized
	// (preserving per-stratum order), distinct slots push concurrently.
	Ingester = core.Ingester
	// Snapshot is a mid-run view of a Deployment's telemetry — counters,
	// latency, bandwidth, per-node throughput, the adaptive fraction —
	// everything the final LiveResult assembles at exit, readable at any
	// moment. All fields are copies; the caller owns them.
	Snapshot = core.LiveSnapshot
	// DeploymentState is one phase of the Deployment lifecycle:
	// ingesting → draining → closed.
	DeploymentState = core.SessionState
)

// Deployment lifecycle states, in order.
const (
	// StateIngesting accepts pushes; windows close as the watermark passes them.
	StateIngesting = core.StateIngesting
	// StateDraining rejects pushes while in-flight windows reach the root.
	StateDraining = core.StateDraining
	// StateClosed is terminal; the final LiveResult is available.
	StateClosed = core.StateClosed
)

// Session lifecycle errors, re-exported for errors.Is tests.
var (
	// ErrClosed rejects operations on a Deployment that has finished
	// (Close completed or the context was cancelled).
	ErrClosed = core.ErrSessionClosed
	// ErrDraining rejects pushes that arrive after Close started draining.
	ErrDraining = core.ErrSessionDraining
	// ErrNotAdaptive rejects SetTarget on a Deployment opened without
	// Config.Adaptive.
	ErrNotAdaptive = core.ErrNotAdaptive
	// ErrBadSourceSlot rejects an Ingester request for a slot outside
	// [0, sources).
	ErrBadSourceSlot = core.ErrBadSourceSlot
)

// Open starts the configured pipeline live and returns the long-lived
// Deployment handle immediately: the compiled tree is pumping, but no items
// flow until the caller pushes them (Ingest, or an Ingester valve per
// source slot). Results stream out of Windows as the root closes them;
// Close drains and returns the final LiveResult; cancelling ctx aborts
// without draining. Open is the session-shaped entry point behind Run —
// Run is exactly Open + generator-fed ingestion + Close.
//
// A nil ctx behaves like context.Background().
func Open(ctx context.Context, cfg Config) (*Deployment, error) {
	cfg = cfg.normalize()
	s, err := core.OpenLive(ctx, cfg.engineConfig(nil))
	if err != nil {
		return nil, err
	}
	d := &Deployment{s: s}
	if cfg.OpsAddr != "" {
		if _, err := d.ServeOps(cfg.OpsAddr); err != nil {
			_, _ = d.Close()
			return nil, err
		}
	}
	return d, nil
}

// Ingest publishes items onto sub-stream src: every item's Source is set to
// src, the batch is stamped with its wall-clock publish instant (end-to-end
// latency is measured from here; without Config.EventTime that instant is
// also every item's Ts, with it a caller-supplied Item.Ts is preserved as
// the event timestamp, a zero Ts defaulting to the publish instant), and
// src hashes to a stable source slot so one stratum always enters the tree
// at the same leaf, preserving per-stratum ordering. Subject to SourceRate
// pacing and MaxIngestLag backpressure.
// Returns ErrDraining / ErrClosed once the Deployment has left the
// ingesting state.
func (d *Deployment) Ingest(src SourceID, items ...Item) error {
	return d.s.Ingest(src, items...)
}

// Ingester returns the push valve for one source slot (0 ≤ slot < the
// tree's source count) — the live analogue of "IoT source number slot".
// The valve is cached: every call for the same slot returns the same
// *Ingester.
func (d *Deployment) Ingester(slot int) (*Ingester, error) {
	return d.s.Ingester(slot)
}

// Windows returns a streaming subscription to window results: every
// WindowResult the root closes from now on is delivered in order, and the
// channel is closed when the Deployment closes. A subscriber that falls
// more than a buffer behind misses intermediate results (every window
// remains in the final LiveResult.Windows) — the root member whose pump
// emits a result never blocks on a slow reader.
func (d *Deployment) Windows() <-chan WindowResult { return d.s.Windows() }

// Snapshot captures the Deployment's telemetry mid-run: counters, latency,
// bandwidth, per-node throughput, and the adaptive fraction, all safe to
// read while the pipeline keeps processing.
func (d *Deployment) Snapshot() Snapshot { return d.s.Snapshot() }

// SetTarget retunes the adaptive controller's relative-error target mid-run;
// the change takes effect at the next window close. Returns ErrNotAdaptive
// when the Deployment was opened without Config.Adaptive.
func (d *Deployment) SetTarget(target float64) error { return d.s.SetTarget(target) }

// Target returns the adaptive controller's current relative-error target
// (0 when the Deployment is not adaptive).
func (d *Deployment) Target() float64 { return d.s.Target() }

// State returns the Deployment's lifecycle phase.
func (d *Deployment) State() DeploymentState { return d.s.State() }

// Done is closed when the Deployment reaches the closed state — by Close
// or by context cancellation.
func (d *Deployment) Done() <-chan struct{} { return d.s.Done() }

// Err returns the error the Deployment closed with: nil after a clean
// Close, the context's error after cancellation, nil while still running.
func (d *Deployment) Err() error { return d.s.Err() }

// ErrOpsServing rejects a second ServeOps on the same Deployment.
var ErrOpsServing = errors.New("approxiot: ops surface already serving")

// ServeOps starts the Deployment's operational HTTP surface on addr
// ("127.0.0.1:9377", or ":0" for an ephemeral port) and returns the bound
// address. The surface serves:
//
//	/health         per-component health as JSON (200 while serviceable,
//	                503 once a component fails)
//	/metrics        Prometheus text exposition of the Snapshot counters,
//	                gauges, per-topic bandwidth, per-node telemetry, and
//	                the end-to-end latency histogram
//	/metrics/query  sar-style windowed rates over sampled history
//	                (?window=5m&lookback=2h, lookback clamped to retention)
//
// A background sampler polls Snapshot once a second into a fixed-capacity
// ring (two hours of retention), so the query endpoint works without any
// external scraper and memory stays bounded. Everything is read-only and
// off the hot path. The surface shuts down automatically when the
// Deployment closes. Config.OpsAddr calls this from Open; call it directly
// to attach the surface to an already-open Deployment. At most one surface
// per Deployment (ErrOpsServing otherwise); ErrClosed after close.
func (d *Deployment) ServeOps(addr string) (string, error) {
	d.opsMu.Lock()
	defer d.opsMu.Unlock()
	if d.opsSrv != nil {
		return "", ErrOpsServing
	}
	if d.s.State() == core.StateClosed {
		return "", ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := ops.NewServer(d.s, ops.Config{})
	httpSrv := &http.Server{Handler: srv.Handler()}
	d.opsSrv = srv
	d.opsHTTP = httpSrv
	d.opsAddr = ln.Addr().String()
	d.opsDone = make(chan struct{})
	srv.Start()
	go func() { _ = httpSrv.Serve(ln) }()
	go func(done chan struct{}) {
		<-d.s.Done()
		srv.Stop()
		_ = httpSrv.Close()
		close(done)
	}(d.opsDone)
	return d.opsAddr, nil
}

// OpsAddr returns the operational surface's bound address, or "" when
// ServeOps has not run.
func (d *Deployment) OpsAddr() string {
	d.opsMu.Lock()
	defer d.opsMu.Unlock()
	return d.opsAddr
}

// waitOps blocks until the ops surface (if any) has shut down.
func (d *Deployment) waitOps() {
	d.opsMu.Lock()
	done := d.opsDone
	d.opsMu.Unlock()
	if done != nil {
		<-done
	}
}

// Close drains the Deployment and returns the final merged LiveResult:
// pushes are rejected from the moment Close is called, in-flight windows
// reach the root, the final partial window is closed, and every goroutine
// exits. Close is idempotent — every call returns the same result — and
// safe to call after context cancellation, in which case it reports the
// context's error alongside the result assembled at abort time.
// If an ops surface is serving (ServeOps / Config.OpsAddr), Close also
// waits for it to shut down, so the listener is released by the time Close
// returns.
func (d *Deployment) Close() (*LiveResult, error) {
	res, err := d.s.Close()
	d.waitOps()
	return res, err
}
