package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/workload"
)

// This file is the session layer of live mode: a LiveSession is the
// long-lived deployment handle behind the facade's approxiot.Open. Where the
// original RunLive was batch-shaped — produce a fixed item count, block, and
// return — the session separates the lifecycle into explicit phases:
//
//	OpenLive    compile the plan, create topics, start every shard group;
//	            return immediately
//	ingesting   callers push items (Ingest / Ingester), subscribe to
//	            window results (Windows), read telemetry (Snapshot), and
//	            steer the adaptive controller (SetTarget)
//	draining    Close stops accepting pushes and waits until nothing is in
//	            flight (the engine's drain, the one a node tier runs too)
//	closed      the final LiveResult is merged and returned; context
//	            cancellation jumps here directly, skipping the drain but
//	            keeping every already-closed window intact
//
// RunLive still exists as a thin compatibility wrapper: it opens a session,
// runs the configured generators through the same Ingester valve every
// external client uses, and closes.

// Session lifecycle errors.
var (
	// ErrSessionClosed rejects operations on a session that has finished
	// (Close completed or the context was cancelled).
	ErrSessionClosed = errors.New("core: live session closed")
	// ErrSessionDraining rejects pushes that arrive after Close started
	// draining: accepted items could no longer be guaranteed to reach the
	// root before the final window merge.
	ErrSessionDraining = errors.New("core: live session draining")
	// ErrNotAdaptive rejects SetTarget on a session opened without a
	// feedback controller.
	ErrNotAdaptive = errors.New("core: session has no feedback controller (set LiveConfig.Feedback / Config.Adaptive)")
	// ErrBadSourceSlot rejects an Ingester request for a slot outside
	// [0, Spec.Sources).
	ErrBadSourceSlot = errors.New("core: source slot out of range")
)

// SessionState is one phase of the Deployment lifecycle.
type SessionState int32

// Lifecycle states, in order. A session is born ingesting; Close moves it
// through draining to closed; context cancellation moves it to closed
// directly.
const (
	StateIngesting SessionState = iota
	StateDraining
	StateClosed
)

// String implements fmt.Stringer.
func (s SessionState) String() string {
	switch s {
	case StateIngesting:
		return "ingesting"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("SessionState(%d)", int32(s))
	}
}

// windowSubBuffer is the per-subscriber buffer of Windows channels. A
// subscriber that falls further behind misses results (they remain in the
// final LiveResult.Windows) rather than stalling the root member whose pump
// emits them.
const windowSubBuffer = 128

// defaultMaxIngestLag is the push-side backpressure high-water mark: an
// Ingester blocks while its leaf topic's unconsumed backlog exceeds this
// many records, bounding broker memory no matter how fast callers push.
const defaultMaxIngestLag = 8192

// defaultDrainTimeout bounds how long Close waits for a wedged pipeline to
// quiesce before giving up and surfacing ErrDrainTimeout.
const defaultDrainTimeout = 2 * time.Minute

// ErrDrainTimeout reports that Close's drain deadline (LiveConfig.
// DrainTimeout) expired before the pipeline quiesced: the final LiveResult
// was assembled anyway, but in-flight items may be missing from it.
// Surfaced by Close and Err, and mirrored on LiveResult.DrainTimedOut.
var ErrDrainTimeout = errors.New("core: drain deadline exceeded; final result may be missing in-flight items")

// LiveSession is a running live deployment: the node session for every tier
// of the compiled tree — every edge layer, the root and the source valves —
// over the in-memory broker by default, or any backend supplied via
// LiveConfig.Bus. It adds only what an in-process deployment has: a bus it
// owns when none is supplied, Err/Done for the session's end, the two-value
// Close that drains, and Ingest by sub-stream. Construct with OpenLive; all
// methods are safe for concurrent use.
type LiveSession struct {
	*NodeSession
}

// OpenLive compiles cfg's deployment plan, instantiates it as live shard
// groups, and returns the running session. It returns as soon as the tree is
// pumping: no items flow until the caller pushes them (Ingest / Ingester).
// cfg.Source and cfg.Items are ignored — they belong to the batch-shaped
// RunLive wrapper. Cancelling ctx aborts the session: in-flight data is
// dropped, but every window already closed keeps its exact-count estimates,
// and all goroutines exit. A nil ctx behaves like context.Background().
func OpenLive(ctx context.Context, cfg LiveConfig) (*LiveSession, error) {
	ownsBus := cfg.Bus == nil
	if ownsBus {
		cfg.Bus = transport.NewMem()
	}
	n, err := openNode(ctx, cfg, everyTier(cfg.Spec), ownsBus)
	if err != nil {
		if ownsBus {
			_ = cfg.Bus.Close()
		}
		return nil, err
	}
	return &LiveSession{n}, nil
}

// compileLive is the prologue of every session (openNode, behind OpenNode and
// OpenLive): it compiles the deployment plan and normalizes the session-level
// defaults — window cadence, confidence, backpressure high-water mark, drain
// deadline, the idle timeout, and with EventTime off the ingest-stamped
// window (Window long, no lateness). Every tier of a multi-process
// deployment runs it on an identical LiveConfig, so every tier compiles the
// same windows as a single-process session by construction.
func compileLive(cfg LiveConfig) (LiveConfig, *Plan, error) {
	if cfg.Feedback != nil {
		// The adaptive loop owns the budget: members get private
		// control-plane-driven costs below, and the plan carries the
		// controller (in effective-fraction form) for validation and as
		// the canonical cost of record.
		cfg.Cost = feedbackCost{ctl: cfg.Feedback}
	}
	if cfg.Window <= 0 {
		cfg.Window = 50 * time.Millisecond
	}
	if !cfg.EventTime {
		cfg.Spec.Window = cfg.Window
		cfg.AllowedLateness = 0
	}
	plan, err := CompilePlan(PlanConfig{
		Spec:        cfg.Spec,
		NewSampler:  cfg.NewSampler,
		Cost:        cfg.Cost,
		Queries:     cfg.Queries,
		Seed:        cfg.Seed,
		Partitions:  cfg.Partitions,
		RootShards:  cfg.RootShards,
		LayerShards: cfg.LayerShards,
	})
	if err != nil {
		return cfg, nil, err
	}
	if cfg.Feedback != nil && feedbackKind(plan.Queries) == query.Count {
		return cfg, nil, ErrFeedbackNeedsQuery
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = stats.TwoSigma
	}
	if cfg.MaxIngestLag == 0 {
		cfg.MaxIngestLag = defaultMaxIngestLag
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	if cfg.IdleTimeout < 0 {
		// No idle exclusion: expectation placeholders for producers a
		// member never hears from would block its watermark forever.
		// Single-member groups hear every producer of their node, so only
		// they can run without the exclusion. (plan.LayerShards is
		// normalized — one entry per layer, the root entry mirrors
		// RootShards.)
		for _, shards := range plan.LayerShards {
			if shards > 1 {
				return cfg, nil, ErrEventTimeIdleSharded
			}
		}
	}
	cfg.AllowedLateness = max(cfg.AllowedLateness, 0)
	cfg.IdleTimeout = trackerIdle(cfg.IdleTimeout, cfg.Window, cfg.AllowedLateness)
	return cfg, plan, nil
}

// trackerIdle resolves a configured IdleTimeout into the members' trackers'
// idle timeout. Zero selects four windows, but never less than the lateness
// horizon — a source pausing for less than the lateness it was promised must
// not be aged out of the minimum, or its in-horizon records would be dropped
// by the very mechanism lateness exists to protect them from. Negative turns
// the exclusion off, which a tracker reads as 0.
func trackerIdle(idle, window, lateness time.Duration) time.Duration {
	switch {
	case idle == 0:
		return max(4*window, lateness)
	case idle < 0:
		return 0
	}
	return idle
}

// Done is closed when the session reaches the closed state — by Close or by
// context cancellation. After Done, Close returns immediately with the
// final result.
func (s *LiveSession) Done() <-chan struct{} { return s.closed }

// Err returns the error the session closed with: nil after a clean Close,
// the context's error after cancellation, nil while still running.
func (s *LiveSession) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.closeErr
}

// Ingester returns the push valve for one source slot (0 ≤ slot <
// Spec.Sources): the live analogue of "IoT source number slot". Pushes
// through the valve publish into the slot's leaf topic, are paced to
// LiveConfig.SourceRate, and block for backpressure when the leaf topic's
// unconsumed backlog exceeds LiveConfig.MaxIngestLag. The valve is cached:
// every call for the same slot returns the same *Ingester.
func (s *LiveSession) Ingester(slot int) (*Ingester, error) {
	return s.ingester(slot)
}

// Ingest publishes items onto sub-stream src: every item's Source is set to
// src, and the batch enters the tree at a stable leaf — src hashes to a
// source slot, so one stratum always flows through the same layer-0 node
// and per-stratum ordering is preserved. Items are stamped with the
// wall-clock publish instant (Pub, for end-to-end latency; with EventTime
// off Ts is overwritten with the same instant, with EventTime on a
// caller-supplied Ts is preserved as the event timestamp). Returns ErrSessionDraining / ErrSessionClosed once the
// session has left the ingesting state.
func (s *LiveSession) Ingest(src stream.SourceID, items ...stream.Item) error {
	for i := range items {
		items[i].Source = src
	}
	in, err := s.ingester(s.slotFor(src))
	if err != nil {
		return err
	}
	return in.Push(items...)
}

// slotFor maps a sub-stream to its source slot by stable hash.
func (s *LiveSession) slotFor(src stream.SourceID) int {
	h := fnv.New32a()
	h.Write([]byte(src))
	return int(h.Sum32() % uint32(s.plan.Spec.Sources))
}

// LiveSnapshot is a mid-run view of the deployment's telemetry — everything
// the final LiveResult assembles at exit, readable at any moment while
// members pump. All fields are copies or freshly-merged instruments; the
// caller owns them.
type LiveSnapshot struct {
	// State is the lifecycle phase at capture time.
	State SessionState
	// Produced / RootProcessed / DecodeErrors / LateDropped mirror the
	// LiveResult counters, at their current values.
	Produced      int64
	RootProcessed int64
	DecodeErrors  int64
	LateDropped   int64
	// LateDroppedInput is the estimated original input the late-dropped
	// records represent (LateDropped weighted by each batch's compounded
	// weight). See LiveResult.LateDroppedInput.
	LateDroppedInput float64
	// WindowsClosed counts the non-empty windows closed so far.
	WindowsClosed int
	// CheckpointErrors counts checkpoint-save failures across every member
	// since the session opened (0 when no checkpoint store is configured).
	// Saves are best-effort — a failure costs recovery fidelity, never the
	// pipeline — so a rising count is the operational signal to watch.
	CheckpointErrors int64
	// Elapsed spans the first ingest to now (to the run's end once closed).
	Elapsed time.Duration
	// Throughput is Produced/Elapsed so far.
	Throughput float64
	// Fraction is the adaptive controller's current sampling fraction (0
	// when the session is not adaptive or the tier runs no root).
	Fraction float64
	// Target is the adaptive controller's relative-error target (0 when
	// not adaptive or the tier runs no root).
	Target float64
	// Latency is a merged copy of the end-to-end latency distribution over
	// items that reached the root so far.
	Latency *metrics.Histogram
	// Bandwidth is a copy of the per-topic produce-side byte counters.
	Bandwidth map[string]int64
	// Nodes holds per-member lifetime telemetry keyed by member ID, at
	// current counter values.
	Nodes map[string]NodeTelemetry
	// SubscriberDrops counts window results dropped on full Windows()
	// subscriber buffers.
	SubscriberDrops int64

	// The fields below describe the deployment's configuration and health
	// probes — the inputs an operational surface (health checks, stall
	// detection) needs alongside the counters.

	// Window is the configured LiveConfig.Window: with EventTime off the
	// window length, and the default idle timeout, drain-probe, checkpoint
	// and idle-beat cadence. Window closes do not follow it — they are
	// event-driven (see LiveConfig.Window).
	Window time.Duration
	// MaxIngestLag is the configured backpressure high-water mark per leaf
	// topic (negative: backpressure disabled).
	MaxIngestLag int
	// IngestLag is the total unconsumed backlog across the leaf topics at
	// capture time — how far the pushers are ahead of the pipeline.
	IngestLag int64
	// Start is the run's start instant (the first ingest; the open instant
	// until anything is pushed).
	Start time.Time
	// LastActivity is the instant of the most recent root-side processing.
	LastActivity time.Time
	// EventTime reports whether callers stamp the event timestamps (false:
	// the valves stamp them at ingest).
	EventTime bool
	// Watermark is the merged root watermark (zero on a tier without the
	// root, while blocked on an expected-but-unheard producer, before any
	// traffic, and once closed).
	Watermark time.Time
	// Adaptive reports whether a feedback controller steps on this tier
	// (the root's) — Fraction/Target are meaningful gauges only when true.
	Adaptive bool
	// LastWindow is the most recently emitted window result — every
	// registered query's estimate ± bound, including top-k groups, quantile
	// intervals, and sliding composites. Nil until the first non-empty
	// window closes. The ops /metrics exposition renders per-query gauges
	// from it.
	LastWindow *WindowResult
}

// Close drains the deployment and returns the final merged LiveResult:
// pushes are rejected from the moment Close is called (ErrSessionDraining),
// the end of stream goes out through every valve, in-flight windows reach
// the root, the final partial window is closed, and every
// goroutine the session owns exits. Close is idempotent — every call returns
// the same result — and safe to call after context cancellation, in which
// case it reports the context's error alongside the result assembled at
// abort time.
func (s *LiveSession) Close() (*LiveResult, error) {
	s.stopAdmitting(true)
	s.shutdown(s.drain(s.ctx))
	<-s.watched
	return s.res, s.Err()
}

// feed is the built-in generator ingestion client the RunLive wrapper uses
// (on an ingest tier):
// it produces items total items, split across the tree's source slots — the
// remainder of items/Sources spread one item each over the low-indexed
// slots, so exactly items are produced — pushing each slot's stream through
// the same Ingester valve external clients use. Blocks until every slot's
// quota is pushed or the session stops accepting.
func (e *engine) feed(source func(i int) workload.Source, items int64) {
	spec := e.plan.Spec
	perSource := items / int64(spec.Sources)
	remainder := items % int64(spec.Sources)
	chunk := e.cfg.Window / 4
	if chunk <= 0 {
		chunk = e.cfg.Window
	}
	var wg sync.WaitGroup
	for slot := 0; slot < spec.Sources; slot++ {
		quota := perSource
		if int64(slot) < remainder {
			quota++
		}
		ing, err := e.ingester(slot)
		if err != nil {
			continue // unreachable on an ingest tier: slots come from the plan
		}
		wg.Add(1)
		go func(slot int, quota int64, ing *Ingester) {
			defer wg.Done()
			gen := source(slot)
			now := e.clock.Now()
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
					return // session draining/closed: stop producing
				}
				sent += int64(len(batch))
			}
		}(slot, quota, ing)
	}
	wg.Wait()
}
