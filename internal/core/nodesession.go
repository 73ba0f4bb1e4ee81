package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
)

// This file is the session: a NodeSession runs one slice of the compiled tree
// — some edge layers, the root, the source valves, or all of them — against
// a transport bus. A 3-tier deployment runs as three (or more) OS processes
// sharing a broker daemon over TCP (internal/transport/tcp), the shape the
// paper's Kafka-based prototype deploys in; OpenLive is the same session for
// every tier over an in-memory bus it owns. Every process compiles the SAME
// plan from the same LiveConfig, so topic names, partition counts, member
// IDs, seed lineages, and watermark expectations agree by construction; the
// cross-process contract is the plan, not any runtime handshake. Every
// capability — feedback, checkpoints, the elastic verbs, the truth fold — is
// the engine's and acts on what the tier hosts: the controller steps where
// the root runs and reaches edge members over the control topic, each
// process keeps its own members' checkpoints, and a verb naming a node
// another tier hosts returns ErrUnknownNode.
//
// Determinism contract: windows are cut by record timestamps — the caller's
// with EventTime, the source valve's publish instant without — and closed by
// watermarks that travel with the data, never by any process's private wall
// clock. That is exactly what makes the multi-process run produce per-window
// counts identical to a single-process run of the same workload.
//
// Completion flows with the data too, through the engine's one lifecycle —
// the steps an in-process Close takes in one call, spread across the tiers.
// The source process pushes its items, then FinishIngest stops admitting and
// broadcasts the end-of-stream watermark (the engine's push fence, the one
// Close runs); the close wave cascades bottom-up through every tier, and
// when the root's merged watermark reaches end-of-stream the root session
// publishes a completion marker on the plan's control topic. Edge-tier
// processes WaitDone on that marker — by then everything they will ever
// consume has been forwarded — then Drain (the engine's drain loop) and
// Close (its close sequence).

// Node-mode errors.
var (
	// ErrNodeNeedsBus rejects OpenNode without a caller-supplied bus: a
	// process-per-tier deployment is meaningless on a private in-memory
	// broker no other process can reach.
	ErrNodeNeedsBus = errors.New("core: node sessions need a shared transport bus (set LiveConfig.Bus)")
	// ErrNodeTierEmpty rejects a tier that selects nothing to run.
	ErrNodeTierEmpty = errors.New("core: node tier selects no layers, no root, and no ingest valves")
	// ErrNodeBadLayer rejects a tier layer outside the plan's edge layers.
	ErrNodeBadLayer = errors.New("core: node tier layer out of range (select the root with NodeTier.Root)")
)

// nodeDoneMarker is the control-topic record the root session publishes
// when its merged watermark reaches end-of-stream. Its length differs from
// controlRecordSize, so an adaptive member's control drain (decodeControl)
// rejects and skips it — the marker can never be mistaken for a fraction.
var nodeDoneMarker = []byte("approxiot:eos-done")

// NodeTier selects the slice of the compiled tree one process runs.
type NodeTier struct {
	// Layers lists the edge layers (0-based, bottom-up) whose shard groups
	// this process runs. The root layer is selected by Root, never here.
	Layers []int
	// Root runs the root consumer group, the window merger, and the
	// completion detector in this process.
	Root bool
	// Ingest makes this process a source: Push/Pusher valves publish into
	// the leaf topics with backpressure, and FinishIngest broadcasts the
	// end-of-stream watermark. A process may combine Ingest with Layers
	// (the usual leaf-tier shape) or run ingest-only (a sensor gateway).
	Ingest bool
}

// NodeSession is one process's slice of a live deployment: the session
// engine running the tier's groups — with the engine's lifecycle: FinishIngest
// and Close fence pushes as an in-process Close does, Drain is the engine's
// drain — plus the tier's validation and the completion marker (completeRoot
// / WaitDone). Construct with OpenNode; all methods are safe for concurrent
// use. The session leaves a caller-supplied bus running — Close leaves the
// backend (and the topics it holds) to the other tiers.
type NodeSession struct {
	*engine

	doneOnce sync.Once
	done     chan struct{} // the run completed: the root saw end of stream
}

// errNoIngest rejects valve operations, and the edge-node detach and attach
// that fence valves, on a tier without source valves.
var errNoIngest = errors.New("core: tier has no ingest valves (set NodeTier.Ingest)")

// OpenNode instantiates one tier of cfg's deployment against cfg.Bus and
// returns the running slice. Every process of the deployment must pass an
// identical LiveConfig (same spec, seed, partitions, shards, window
// parameters, and an identically built Feedback controller) — the compiled
// plan is the cross-process contract — and a tier that names its own share.
// Cancelling ctx aborts the session without a drain; a nil ctx behaves like
// context.Background().
func OpenNode(ctx context.Context, cfg LiveConfig, tier NodeTier) (*NodeSession, error) {
	if cfg.Bus == nil {
		return nil, ErrNodeNeedsBus
	}
	return openNode(ctx, cfg, tier, false)
}

// openNode validates tier, compiles cfg and opens the session over cfg.Bus,
// which the close sequence closes when ownsBus is set.
func openNode(ctx context.Context, cfg LiveConfig, tier NodeTier, ownsBus bool) (*NodeSession, error) {
	if !tier.Root && !tier.Ingest && len(tier.Layers) == 0 {
		return nil, ErrNodeTierEmpty
	}
	cfg, plan, err := compileLive(cfg)
	if err != nil {
		return nil, err
	}
	layers := append([]int(nil), tier.Layers...)
	sort.Ints(layers)
	for i, l := range layers {
		if l < 0 || l >= plan.RootLayer() {
			return nil, fmt.Errorf("%w: layer %d of %d edge layers", ErrNodeBadLayer, l, plan.RootLayer())
		}
		if i > 0 && layers[i-1] == l {
			return nil, fmt.Errorf("%w: layer %d selected twice", ErrNodeBadLayer, l)
		}
	}
	tier.Layers = layers

	if ctx == nil {
		ctx = context.Background()
	}
	n := &NodeSession{done: make(chan struct{})}
	// A root member's pump may run atEOS before openEngine returns, so it
	// must not reach the engine through n.
	atEOS := func() { n.completeRoot(cfg.Bus, plan.ControlTopic) }
	if n.engine, err = openEngine(ctx, cfg, plan, tier, ownsBus, atEOS); err != nil {
		return nil, err
	}
	n.watch()
	return n, nil
}

// completeRoot publishes the run's completion marker on the control topic
// — the in-band signal edge-tier processes WaitDone on — and closes Done.
// Once, no matter how many root closes see the end-of-stream watermark.
func (n *NodeSession) completeRoot(bus transport.Bus, controlTopic string) {
	n.doneOnce.Do(func() {
		// Best-effort: a failed send only degrades remote WaitDone to its
		// caller's context deadline; this process's Done still closes.
		_ = bus.NewProducer().SendBatch(controlTopic, []transport.Record{{Value: nodeDoneMarker}})
		close(n.done)
	})
}

// Done returns a channel closed when the run completes — on the root tier,
// when the merged watermark reaches end-of-stream. Other tiers learn of
// completion via WaitDone (the channel closes only with the session).
func (n *NodeSession) Done() <-chan struct{} { return n.done }

// WaitDone blocks until the deployment-wide run completes: the root tier
// waits for its own end-of-stream detection, every other tier waits for
// the completion marker the root published on the control topic. Returns
// ctx's error on cancellation and ErrSessionClosed if the session is
// closed while waiting.
func (n *NodeSession) WaitDone(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n.tier.Root {
		select {
		case <-n.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-n.closed:
			return ErrSessionClosed
		}
	}
	c, err := n.bus.NewConsumer(n.plan.ControlTopic)
	if err != nil {
		return err
	}
	defer c.Close()
	var recs []transport.Record
	for {
		select {
		case <-n.closed:
			return ErrSessionClosed
		default:
		}
		recs, err = c.PollInto(ctx, recs[:0], 64)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return ctx.Err()
			}
			return err
		}
		for _, r := range recs {
			if bytes.Equal(r.Value, nodeDoneMarker) {
				n.doneOnce.Do(func() { close(n.done) })
				return nil
			}
		}
	}
}

// Drain blocks until this process's groups are quiescent — the engine's
// drain, the one an in-process Close runs: keepalives go quiet and three
// consecutive probes must find nothing in flight. Call after WaitDone (the
// pipeline upstream of this tier has stopped producing) and before Close.
// Returns ctx's error on cancellation and ErrDrainTimeout once
// LiveConfig.DrainTimeout has passed; nil if the session closes meanwhile.
func (n *NodeSession) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return n.drain(ctx)
}

// Close stops admitting pushes (without the end of stream — that is
// FinishIngest's), stops this process's groups and returns the tier's final
// result, in which fields another tier owns read zero: only an ingest tier
// has Produced and TruthSum, only the root tier Windows. Snapshot's Elapsed
// and Throughput freeze at this instant. It does not close a caller-supplied
// bus and it does not drain — call Drain first for a graceful exit.
// Idempotent; every call returns the same result.
func (n *NodeSession) Close() *LiveResult {
	n.stopAdmitting(false)
	n.shutdown(nil)
	<-n.watched
	return n.res
}

// Pusher returns the push valve for one source slot (Ingest tiers only;
// the valve is cached per slot), publishing over whatever bus the session
// runs on.
func (n *NodeSession) Pusher(slot int) (*NodePusher, error) {
	return n.ingester(slot)
}

// Push publishes items onto source slot `slot` — the multi-arg convenience
// over Pusher(slot).Push.
func (n *NodeSession) Push(slot int, items ...stream.Item) error {
	v, err := n.Pusher(slot)
	if err != nil {
		return err
	}
	return v.Push(items...)
}

// FinishIngest ends this process's ingestion with the engine's fence:
// further pushes are rejected with ErrSessionDraining, a push parked in its
// pacing sleep or backpressure wait wakes and returns, and once every push
// admitted before has landed the end-of-stream watermark goes out through
// every source slot's valve (valves for never-pushed slots are created so
// every statically-expected producer chain terminates in-band). The close
// wave then cascades through every tier and the root completes. Calling it
// again is a no-op.
func (n *NodeSession) FinishIngest() error {
	if !n.tier.Ingest {
		return errNoIngest
	}
	if n.State() == StateClosed {
		return ErrSessionClosed
	}
	n.stopAdmitting(true)
	return nil
}
