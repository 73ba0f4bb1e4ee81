package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	approxiot "github.com/approxiot/approxiot"
	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/tcp"
)

// The system under test behind one small surface, so both drivers run
// unchanged over approxiot.Open (in-memory broker) and over three
// core.OpenNode tiers on loopback TCP. Only public entry points are used.

// pushFn is one source slot's valve: Ingester.Push or NodePusher.Push.
type pushFn func(items ...stream.Item) error

// outcome is everything a finished deployment reports, in one shape.
type outcome struct {
	windows          []core.WindowResult
	produced         int64
	lateDropped      int64
	lateDroppedInput float64
	decodeErrors     int64
	subscriberDrops  int64
	drainTimedOut    bool
	wireBytes        int64 // bytes produced onto every data link
	nodes            map[string]core.NodeTelemetry
	net              transport.Counters // summed over TCP clients; zero in process
}

type system interface {
	pusher(slot int) (pushFn, error)
	snapshot() core.LiveSnapshot
	opsAddr() string
	// finish ends ingestion, drains, closes every session, and reports.
	finish() (outcome, error)
	// release tears down what outlives the sessions (the TCP broker
	// daemon). It is kept out of finish because tcp.Server.Close waits out
	// — spinning — its connections' 2 s watcher long-polls: the cost marks
	// are taken before it, and discarded set-ups are only released once the
	// measured run is over, when their watchers have long since expired.
	release()
}

func treeOf(sp spec) approxiot.TreeSpec {
	tree := approxiot.Testbed()
	tree.Window = sp.window
	return tree
}

func openSystem(sp spec, seed int64, onWindow func(core.WindowResult)) (system, error) {
	if sp.tcp {
		return openTCP(sp, seed, onWindow)
	}
	cfg := approxiot.Config{
		Tree:            treeOf(sp),
		Strategy:        approxiot.WHS,
		Fraction:        sp.fraction,
		Queries:         sp.queries,
		Slide:           sp.slide,
		Window:          sp.sweep,
		EventTime:       true,
		AllowedLateness: sp.lateness,
		IdleTimeout:     sp.idle,
		MaxIngestLag:    sp.maxLag,
		OnWindow:        onWindow,
		Partitions:      sp.partitions,
		RootShards:      sp.rootShards,
		LayerShards:     sp.layerShards,
		Seed:            uint64(seed),
	}
	if sp.ops {
		cfg.OpsAddr = "127.0.0.1:0"
	}
	d, err := approxiot.Open(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return &memSystem{d: d}, nil
}

type memSystem struct{ d *approxiot.Deployment }

func (m *memSystem) pusher(slot int) (pushFn, error) {
	in, err := m.d.Ingester(slot)
	if err != nil {
		return nil, err
	}
	return in.Push, nil
}

func (m *memSystem) snapshot() core.LiveSnapshot { return m.d.Snapshot() }
func (m *memSystem) opsAddr() string             { return m.d.OpsAddr() }
func (m *memSystem) release()                    {} // Close already shut the private broker down

func (m *memSystem) finish() (outcome, error) {
	res, err := m.d.Close()
	if res == nil {
		return outcome{}, err
	}
	return outcome{
		windows:          res.Windows,
		produced:         res.Produced,
		lateDropped:      res.LateDropped,
		lateDroppedInput: res.LateDroppedInput,
		decodeErrors:     res.DecodeErrors,
		subscriberDrops:  m.d.Snapshot().SubscriberDrops,
		drainTimedOut:    res.DrainTimedOut,
		wireBytes:        res.Bandwidth.Total(),
		nodes:            res.Nodes,
	}, err
}

// liveConfig is the core-level form of the same deployment, shared by the
// TCP tiers and the hand-chained replay's plan.
func liveConfig(sp spec, seed int64) core.LiveConfig {
	var layerShards []int
	if sp.layerShards > 1 {
		layerShards = []int{sp.layerShards, sp.layerShards}
	}
	return core.LiveConfig{
		Spec:            treeOf(sp),
		NewSampler:      core.WHSFactory(),
		Cost:            core.EffectiveFractionBudget{Fraction: sp.fraction},
		Window:          sp.sweep,
		EventTime:       true,
		AllowedLateness: sp.lateness,
		IdleTimeout:     sp.idle,
		Queries:         sp.queries,
		Slide:           sp.slide,
		Partitions:      sp.partitions,
		RootShards:      sp.rootShards,
		LayerShards:     layerShards,
		MaxIngestLag:    sp.maxLag,
		Seed:            uint64(seed),
	}
}

// tcpSystem is the process-per-tier deployment held inside one process:
// one broker daemon behind tcp.Listen, and three tier sessions (ingest +
// edge1, edge2, root) each on its own tcp.Dial client — so getrusage covers
// broker and tiers alike.
type tcpSystem struct {
	broker  *mq.Broker
	srv     *tcp.Server
	clients []*tcp.Client
	leaf    *core.NodeSession
	mid     *core.NodeSession
	root    *core.NodeSession
}

func openTCP(sp spec, seed int64, onWindow func(core.WindowResult)) (_ system, err error) {
	t := &tcpSystem{broker: mq.NewBroker()}
	defer func() {
		if err != nil {
			t.closeSessions()
			t.release()
		}
	}()
	if t.srv, err = tcp.Listen("127.0.0.1:0", transport.WrapBroker(t.broker)); err != nil {
		return nil, err
	}
	open := func(tier core.NodeTier, hook func(core.WindowResult)) (*core.NodeSession, error) {
		cl, err := tcp.Dial(t.srv.Addr().String())
		if err != nil {
			return nil, err
		}
		t.clients = append(t.clients, cl)
		cfg := liveConfig(sp, seed)
		cfg.Bus = cl
		cfg.OnWindow = hook
		return core.OpenNode(context.Background(), cfg, tier)
	}
	if t.root, err = open(core.NodeTier{Root: true}, onWindow); err != nil {
		return nil, err
	}
	if t.mid, err = open(core.NodeTier{Layers: []int{1}}, nil); err != nil {
		return nil, err
	}
	if t.leaf, err = open(core.NodeTier{Layers: []int{0}, Ingest: true}, nil); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tcpSystem) pusher(slot int) (pushFn, error) {
	p, err := t.leaf.Pusher(slot)
	if err != nil {
		return nil, err
	}
	return p.Push, nil
}

// snapshot reports the ingest tier's view (produced, ingest lag) with the
// root tier's window count.
func (t *tcpSystem) snapshot() core.LiveSnapshot {
	snap := t.leaf.Snapshot()
	snap.WindowsClosed = t.root.Snapshot().WindowsClosed
	return snap
}

func (t *tcpSystem) opsAddr() string { return "" }

func (t *tcpSystem) closeSessions() {
	for _, s := range []*core.NodeSession{t.leaf, t.mid, t.root} {
		if s != nil {
			s.Close()
		}
	}
	for _, cl := range t.clients {
		cl.Close()
	}
}

func (t *tcpSystem) release() {
	if t.srv != nil {
		t.srv.Close()
	}
	t.broker.Close()
}

func (t *tcpSystem) finish() (outcome, error) {
	defer t.closeSessions()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := t.leaf.FinishIngest(); err != nil {
		return outcome{}, err
	}
	// Completion travels with the data: the root sees end-of-stream, then
	// the edge tiers learn of it from the control topic and drain.
	for _, s := range []*core.NodeSession{t.root, t.mid, t.leaf} {
		if err := s.WaitDone(ctx); err != nil {
			return outcome{}, fmt.Errorf("tier WaitDone: %w", err)
		}
	}
	for _, s := range []*core.NodeSession{t.leaf, t.mid} {
		if err := s.Drain(ctx); err != nil {
			return outcome{}, fmt.Errorf("tier Drain: %w", err)
		}
	}
	out := outcome{nodes: make(map[string]core.NodeTelemetry)}
	for _, s := range []*core.NodeSession{t.leaf, t.mid, t.root} {
		for id, tel := range s.Snapshot().Nodes {
			out.nodes[id] = tel
		}
		res := s.Close()
		out.produced += res.Produced
		out.lateDropped += res.LateDropped
		out.lateDroppedInput += res.LateDroppedInput
		out.decodeErrors += res.DecodeErrors
		out.windows = append(out.windows, res.Windows...)
	}
	for _, cl := range t.clients {
		c := cl.Counters()
		out.net.BytesOut += c.BytesOut
		out.net.BytesIn += c.BytesIn
		out.net.Reconnects += c.Reconnects
		out.net.SendErrors += c.SendErrors
		out.net.PollErrors += c.PollErrors
	}
	out.wireBytes = out.net.BytesOut
	return out, nil
}

// tierItems sums a tier's member telemetry: Testbed() names its layers
// edge1, edge2 and root, and every member ID starts with its layer name.
func tierItems(nodes map[string]core.NodeTelemetry, layer string) (in, out int64) {
	for id, tel := range nodes {
		if strings.HasPrefix(id, layer+"-") {
			in += tel.Observed
			out += tel.Emitted
		}
	}
	return in, out
}
