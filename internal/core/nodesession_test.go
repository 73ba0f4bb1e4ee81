package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/checkpoint"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/tcp"
	"github.com/approxiot/approxiot/internal/xrand"
)

// startNodeBroker runs a broker daemon the way cmd/approxiot-node's broker
// role does — an mq broker behind the TCP transport server — and returns
// its dial address.
func startNodeBroker(t *testing.T) string {
	t.Helper()
	b := mq.NewBroker()
	srv, err := tcp.Listen("127.0.0.1:0", transport.WrapBroker(b))
	if err != nil {
		t.Fatalf("tcp.Listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		b.Close()
	})
	return srv.Addr().String()
}

// dialNodeBus mounts the broker as a tier process would, with every lent
// byte poisoned the moment it may be rewritten (poison_test.go): a node-mode
// test's results are right only if nothing reads a stale alias.
func dialNodeBus(t *testing.T, addr string) transport.Bus {
	t.Helper()
	c, err := tcp.Dial(addr)
	if err != nil {
		t.Fatalf("tcp.Dial(%s): %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return poisonBus{c}
}

// nodeTestConfig is the LiveConfig every "process" of a node-mode test
// shares — the cross-process contract. IdleTimeout is pinned high so no
// chain can be idle-aged while records sit in TCP buffers: completeness
// then rests purely on watermarks, which is the determinism being tested.
func nodeTestConfig(spec topology.TreeSpec, cost CostFunction, lateness time.Duration) LiveConfig {
	return LiveConfig{
		Spec:            spec,
		NewSampler:      WHSFactory(),
		Cost:            cost,
		Window:          10 * time.Millisecond,
		Queries:         []query.Kind{query.Sum, query.Count},
		Seed:            21,
		EventTime:       true,
		AllowedLateness: lateness,
		IdleTimeout:     30 * time.Second,
	}
}

// TestNodeTiersMatchSingleProcess is the multi-process acceptance test: the
// testbed tree split into three sessions over a real TCP broker — leaf tier
// with the source valves, intermediate tier, root tier, each on its own
// client connection exactly as three OS processes would connect — must
// close the same windows with the same bounds and bit-equal counts as a
// single-process OpenLive run of the same shuffled workload. At census
// budget the estimates match too; at half budget Eq. 8 still forces exact
// counts because per-window estimated input telescopes independently of
// which items the samplers kept. Items are pushed one at a time, a record
// each, so every broker — the single process's and the daemon's — fills and
// frees segments, each scribbled as it is freed (poisonStaleBytes).
func TestNodeTiersMatchSingleProcess(t *testing.T) {
	poisonStaleBytes(t)
	spec := topology.Testbed() // 8 sources, layers 4/2/1, 1 s windows
	const slots, perSlot = 8, 120
	span := 4 * time.Second
	items := eventItems(slots, perSlot, span)

	// Shuffle each slot within the lateness horizon, as the cross-mode
	// equivalence test does — determinism must not lean on arrival order.
	rng := xrand.New(99)
	shuffled := make([][]stream.Item, slots)
	for s := range items {
		perm := append([]stream.Item(nil), items[s]...)
		for i := len(perm) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		shuffled[s] = perm
	}

	// run pushes the workload through a single-process reference and through
	// the same deployment as three tiers over TCP, checks that they close the
	// same windows, and returns both sides' windows.
	run := func(t *testing.T, cfg LiveConfig, exact bool) (single, node []WindowResult) {
		t.Helper()
		// Reference: the whole tree in one process on the in-memory bus.
		ref := func() *LiveResult {
			s, err := OpenLive(nil, cfg)
			if err != nil {
				t.Fatalf("OpenLive: %v", err)
			}
			for slot, its := range shuffled {
				ing, err := s.Ingester(slot)
				if err != nil {
					t.Fatalf("ref Ingester(%d): %v", slot, err)
				}
				for _, it := range its {
					if err := ing.Push(it); err != nil {
						t.Fatalf("ref push slot %d: %v", slot, err)
					}
				}
			}
			res, err := s.Close()
			if err != nil {
				t.Fatalf("ref close: %v", err)
			}
			return res
		}()

		// The same deployment as three tiers over TCP.
		addr := startNodeBroker(t)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()

		rootCfg := cfg
		rootCfg.Bus = dialNodeBus(t, addr)
		root, err := OpenNode(ctx, rootCfg, NodeTier{Root: true})
		if err != nil {
			t.Fatalf("OpenNode(root): %v", err)
		}
		defer root.Close()
		midCfg := cfg
		midCfg.Bus = dialNodeBus(t, addr)
		mid, err := OpenNode(ctx, midCfg, NodeTier{Layers: []int{1}})
		if err != nil {
			t.Fatalf("OpenNode(mid): %v", err)
		}
		defer mid.Close()
		leafCfg := cfg
		leafCfg.Bus = dialNodeBus(t, addr)
		leaf, err := OpenNode(ctx, leafCfg, NodeTier{Layers: []int{0}, Ingest: true})
		if err != nil {
			t.Fatalf("OpenNode(leaf): %v", err)
		}
		defer leaf.Close()

		for slot, its := range shuffled {
			for _, it := range its {
				if err := leaf.Push(slot, it); err != nil {
					t.Fatalf("leaf push slot %d: %v", slot, err)
				}
			}
		}
		if err := leaf.FinishIngest(); err != nil {
			t.Fatalf("FinishIngest: %v", err)
		}
		if err := root.WaitDone(ctx); err != nil {
			t.Fatalf("root WaitDone: %v", err)
		}
		// Edge tiers learn of completion from the control topic, the way
		// separate processes must.
		if err := mid.WaitDone(ctx); err != nil {
			t.Fatalf("mid WaitDone: %v", err)
		}
		if err := leaf.WaitDone(ctx); err != nil {
			t.Fatalf("leaf WaitDone: %v", err)
		}
		if err := leaf.Drain(ctx); err != nil {
			t.Fatalf("leaf Drain: %v", err)
		}
		if err := mid.Drain(ctx); err != nil {
			t.Fatalf("mid Drain: %v", err)
		}
		leafRes := leaf.Close()
		midRes := mid.Close()
		rootRes := root.Close()

		total := int64(slots * perSlot)
		if leafRes.Produced != total {
			t.Fatalf("leaf produced %d, want %d", leafRes.Produced, total)
		}
		// The truth fold runs on every ingest tier, in slot order, so the
		// leaf tier's sum is the single-process sum bit for bit.
		if leafRes.TruthSum != ref.TruthSum {
			t.Fatalf("leaf truth sum %v, single-process %v", leafRes.TruthSum, ref.TruthSum)
		}
		if rootRes.Produced != 0 || len(leafRes.Windows) != 0 {
			t.Fatalf("tier results bled across tiers: root produced %d, leaf closed %d windows",
				rootRes.Produced, len(leafRes.Windows))
		}
		late := leafRes.LateDropped + midRes.LateDropped + rootRes.LateDropped
		if late != 0 {
			t.Fatalf("dropped %d items pushed within the horizon", late)
		}
		if errs := leafRes.DecodeErrors + midRes.DecodeErrors + rootRes.DecodeErrors; errs != 0 {
			t.Fatalf("%d decode errors crossing the wire", errs)
		}

		if len(rootRes.Windows) != len(ref.Windows) {
			t.Fatalf("node run closed %d windows, single-process %d", len(rootRes.Windows), len(ref.Windows))
		}
		var nodeInput float64
		for i, rw := range ref.Windows {
			nw := rootRes.Windows[i]
			if !nw.Start.Equal(rw.Start) || !nw.End.Equal(rw.End) {
				t.Fatalf("window %d bounds node [%v,%v) vs single [%v,%v)",
					i, nw.Start, nw.End, rw.Start, rw.End)
			}
			rc, nc := rw.Result(query.Count).Estimate.Value, nw.Result(query.Count).Estimate.Value
			if rc != nc {
				t.Fatalf("window %d count node %.2f vs single %.2f", i, nc, rc)
			}
			if nw.EstimatedInput != rw.EstimatedInput {
				t.Fatalf("window %d estimated input node %.2f vs single %.2f",
					i, nw.EstimatedInput, rw.EstimatedInput)
			}
			if exact {
				rs, ns := rw.Result(query.Sum).Estimate.Value, nw.Result(query.Sum).Estimate.Value
				if rel := math.Abs(ns-rs) / math.Abs(rs); rel > 1e-9 {
					t.Fatalf("window %d sum node %.6f vs single %.6f (rel %.2e)", i, ns, rs, rel)
				}
			}
			nodeInput += nw.EstimatedInput
		}
		// The accounting identity holds assembled across tiers: window
		// input plus every tier's late drops equals what the valves sent.
		nodeInput += leafRes.LateDroppedInput + midRes.LateDroppedInput + rootRes.LateDroppedInput
		assertCountInvariant(t, "node event-time", nodeInput, float64(leafRes.Produced))
		return ref.Windows, rootRes.Windows
	}

	for _, tc := range []struct {
		name  string
		cost  CostFunction
		exact bool // estimates must match, not just counts
	}{
		{"census", FractionBudget{Fraction: 1}, true},
		{"half-budget", FractionBudget{Fraction: 0.5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, nodeTestConfig(spec, tc.cost, span), tc.exact)
		})
	}

	// Sliding windows compose at the root's one emit path, so a root tier
	// carries the same sliding estimates as the single-process root.
	t.Run("sliding", func(t *testing.T) {
		cfg := nodeTestConfig(spec, FractionBudget{Fraction: 1}, span)
		cfg.Slide = 3
		ref, node := run(t, cfg, true)
		for i, rw := range ref {
			nw := node[i]
			if len(rw.Sliding) == 0 || len(nw.Sliding) != len(rw.Sliding) {
				t.Fatalf("window %d carries %d sliding estimates, single-process %d", i, len(nw.Sliding), len(rw.Sliding))
			}
			for j, rs := range rw.Sliding {
				ns := nw.Sliding[j]
				if ns.Kind != rs.Kind || ns.Panes != rs.Panes {
					t.Fatalf("window %d sliding %d: %v over %d panes, single-process %v over %d",
						i, j, ns.Kind, ns.Panes, rs.Kind, rs.Panes)
				}
				rv, nv := rs.Estimate.Value, ns.Estimate.Value
				switch rs.Kind {
				case query.Count:
					if nv != rv {
						t.Fatalf("window %d sliding count node %v vs single %v", i, nv, rv)
					}
				default:
					if rel := math.Abs(nv-rv) / math.Abs(rv); rel > 1e-9 {
						t.Fatalf("window %d sliding %v node %.6f vs single %.6f (rel %.2e)", i, rs.Kind, nv, rv, rel)
					}
				}
			}
		}
	})
}

// TestNodeTiersIngestStamped runs the three tiers over TCP without caller
// timestamps: the leaf tier's valves stamp every item at ingest, and every
// tier windows by those stamps, so the tiers need no shared clock. Two pushers
// feed the census across a dozen windows; the cross-tier accounting identity
// must hold exactly, nothing may be late, and the SUM must be the pushed truth.
func TestNodeTiersIngestStamped(t *testing.T) {
	poisonStaleBytes(t)
	cfg := nodeTestConfig(topology.Testbed(), FractionBudget{Fraction: 1}, 0)
	cfg.EventTime = false
	addr := startNodeBroker(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	open := func(tier NodeTier) *NodeSession {
		n, err := OpenNode(ctx, withBus(cfg, dialNodeBus(t, addr)), tier)
		if err != nil {
			t.Fatalf("OpenNode(%+v): %v", tier, err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	root := open(NodeTier{Root: true})
	mid := open(NodeTier{Layers: []int{1}})
	leaf := open(NodeTier{Layers: []int{0}, Ingest: true})

	// Two pushers, four slots each, twelve rounds a window apart.
	const rounds, perPush = 12, 25
	truth := make([]float64, 2)
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for r := 0; r < rounds; r++ {
				for slot := 4 * w; slot < 4*w+4; slot++ {
					items := make([]stream.Item, perPush)
					for k := range items {
						items[k].Value = float64(slot+1) + 0.125*float64(k+r)
						truth[w] += items[k].Value
					}
					if err := leaf.Push(slot, items...); err != nil {
						errs <- err
						return
					}
				}
				time.Sleep(cfg.Window)
			}
			errs <- nil
		}(w)
	}
	for range truth {
		if err := <-errs; err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if err := leaf.FinishIngest(); err != nil {
		t.Fatalf("FinishIngest: %v", err)
	}
	for _, n := range []*NodeSession{root, mid, leaf} {
		if err := n.WaitDone(ctx); err != nil {
			t.Fatalf("WaitDone: %v", err)
		}
	}
	for _, n := range []*NodeSession{leaf, mid} {
		if err := n.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	leafRes, midRes, rootRes := leaf.Close(), mid.Close(), root.Close()

	if want := int64(2 * rounds * 4 * perPush); leafRes.Produced != want {
		t.Fatalf("leaf produced %d, want %d", leafRes.Produced, want)
	}
	if late := leafRes.LateDropped + midRes.LateDropped + rootRes.LateDropped; late != 0 {
		t.Fatalf("%d ingest-stamped items dropped late", late)
	}
	if len(rootRes.Windows) < 2 {
		t.Fatalf("root closed %d windows over %d rounds", len(rootRes.Windows), rounds)
	}
	var input, sum float64
	for _, w := range rootRes.Windows {
		input += w.EstimatedInput
		sum += w.Result(query.Sum).Estimate.Value
	}
	input += leafRes.LateDroppedInput + midRes.LateDroppedInput + rootRes.LateDroppedInput
	assertCountInvariant(t, "ingest-stamped node tiers", input, float64(leafRes.Produced))
	if want := truth[0] + truth[1]; math.Abs(sum-want)/want > 1e-9 {
		t.Fatalf("census sum %.6f, pushed truth %.6f", sum, want)
	}
}

// TestNodeBackpressureOverTCP is the satellite-5 regression: MaxIngestLag
// must hold through a remote backend. The valve's lag probe travels over
// TCP; an unknown group (the consuming tier not up yet) must BLOCK the
// push, not admit it, and once the group exists the valve must stall
// within one record of the high-water mark until a consumer drains. Lag is
// measured in records, as everywhere else — each Push below publishes one
// single-item batch record so the arithmetic is exact.
func TestNodeBackpressureOverTCP(t *testing.T) {
	poisonStaleBytes(t)
	spec := topology.TreeSpec{
		Sources: 1,
		Layers: []topology.LayerSpec{
			{Name: "edge", Nodes: 1},
			{Name: "root", Nodes: 1},
		},
		Window: 100 * time.Millisecond,
	}
	const maxLag, total = 8, 256
	cfg := nodeTestConfig(spec, FractionBudget{Fraction: 1}, 0)
	cfg.MaxIngestLag = maxLag

	addr := startNodeBroker(t)
	busA := dialNodeBus(t, addr) // the source process
	busB := dialNodeBus(t, addr) // the (initially absent) leaf process

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sess, err := OpenNode(ctx, withBus(cfg, busA), NodeTier{Ingest: true})
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	defer sess.Close()
	pusher, err := sess.Pusher(0)
	if err != nil {
		t.Fatalf("Pusher: %v", err)
	}

	// The plan is the contract: derive the leaf topic and its group name
	// from the same compilation the session ran.
	plan, err := CompilePlan(PlanConfig{
		Spec:       spec,
		NewSampler: cfg.NewSampler,
		Cost:       cfg.Cost,
		Queries:    cfg.Queries,
		Seed:       cfg.Seed,
	})
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	srcTopic := plan.Sources[0].Topic
	lagGroup := plan.Layers[0][plan.Sources[0].ParentIndex].ID + "-in"

	pushed := make(chan error, 1)
	go func() {
		for sent := 0; sent < total; sent++ {
			if err := pusher.Push(stream.Item{Value: 1}); err != nil {
				pushed <- err
				return
			}
		}
		pushed <- nil
	}()

	// Phase 1: no leaf group anywhere yet — the probe fails, and the valve
	// must wait, never admit. (Admitting here is exactly the bug this test
	// pins: a transport error silently disabling backpressure.)
	time.Sleep(200 * time.Millisecond)
	if got := pusher.Sent(); got != 0 {
		t.Fatalf("valve admitted %d items with no consumer group to probe", got)
	}

	// Phase 2: the leaf group registers (the consuming tier came up) but
	// does not poll — the valve must advance to the high-water mark and
	// stall within one chunk of it.
	consumer, err := busB.NewGroupConsumer(srcTopic, lagGroup)
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer consumer.Close()
	deadline := time.Now().Add(10 * time.Second)
	for pusher.Sent() <= maxLag {
		if time.Now().After(deadline) {
			t.Fatalf("valve never advanced past the high-water mark; sent %d", pusher.Sent())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // give an unbounded valve time to run away
	// Each admit requires lag <= maxLag at probe time and adds one record,
	// so an honest valve can never be more than one past the mark.
	if got := pusher.Sent(); got > maxLag+1 {
		t.Fatalf("valve sent %d with an unpolled group, want <= %d", got, maxLag+1)
	}
	if lag, err := busA.GroupLag(srcTopic, lagGroup); err != nil || lag > maxLag+1 {
		t.Fatalf("broker-side lag %d (err %v), want <= %d", lag, err, maxLag+1)
	}

	// Phase 3: the consumer drains; the valve must release and finish.
	drainCtx, stopDrain := context.WithCancel(ctx)
	defer stopDrain()
	go func() {
		for {
			if _, err := consumer.PollInto(drainCtx, nil, 256); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatalf("push failed after drain began: %v", err)
		}
	case <-ctx.Done():
		t.Fatalf("push never completed; sent %d of %d", pusher.Sent(), total)
	}
	if got := pusher.Sent(); got != total {
		t.Fatalf("sent %d, want %d", got, total)
	}
}

func withBus(cfg LiveConfig, bus transport.Bus) LiveConfig {
	cfg.Bus = bus
	return cfg
}

// TestOpenNodeValidation pins the node-mode contract errors, and what a verb
// returns on a tier that cannot serve it.
func TestOpenNodeValidation(t *testing.T) {
	spec := topology.Testbed()
	base := nodeTestConfig(spec, FractionBudget{Fraction: 1}, 0)
	bus := transport.NewMem()
	defer bus.Close()

	ingestStamped := withBus(base, bus)
	ingestStamped.EventTime = false
	adaptive := withBus(base, bus)
	adaptive.Cost = nil
	adaptive.Feedback = NewFeedbackController(0.2, 0.05)
	adaptive.Checkpoint = checkpoint.NewMemoryStore()
	for _, tc := range []struct {
		name string
		cfg  LiveConfig
		tier NodeTier
		verb func(*NodeSession) error // run on the opened session; nil: none
		want error                    // from OpenNode, else from verb
	}{
		{name: "no bus", cfg: base, tier: NodeTier{Root: true}, want: ErrNodeNeedsBus},
		{name: "ingest-stamped", cfg: ingestStamped, tier: NodeTier{Root: true}},
		{name: "empty tier", cfg: withBus(base, bus), want: ErrNodeTierEmpty},
		// The testbed has edge layers 0 and 1; layer 2 is the root,
		// selectable only via Root.
		{name: "root as layer", cfg: withBus(base, bus), tier: NodeTier{Layers: []int{2}}, want: ErrNodeBadLayer},
		{name: "duplicate layer", cfg: withBus(base, bus), tier: NodeTier{Layers: []int{0, 0}}, want: ErrNodeBadLayer},
		// Feedback and Checkpoint run on every tier.
		{name: "feedback and checkpoint", cfg: adaptive, tier: NodeTier{Layers: []int{0}, Ingest: true}},
		{name: "node another tier hosts", cfg: withBus(base, bus), tier: NodeTier{Root: true},
			verb: func(n *NodeSession) error { _, err := n.AddMember("edge1-0"); return err }, want: ErrUnknownNode},
		{name: "detach without ingest", cfg: withBus(base, bus), tier: NodeTier{Layers: []int{0}},
			verb: func(n *NodeSession) error { return n.RemoveEdgeNode("edge1-0") }, want: errNoIngest},
		{name: "target without root", cfg: adaptive, tier: NodeTier{Layers: []int{0}, Ingest: true},
			verb: func(n *NodeSession) error { return n.SetTarget(0.01) }, want: ErrNotAdaptive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := OpenNode(nil, tc.cfg, tc.tier)
			if tc.verb == nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("OpenNode: err = %v, want %v", err, tc.want)
				}
				if n != nil {
					n.Close()
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenNode: %v", err)
			}
			defer n.Close()
			if err := tc.verb(n); !errors.Is(err, tc.want) {
				t.Fatalf("verb: err = %v, want %v", err, tc.want)
			}
		})
	}
}

// openTiers opens the testbed's three tiers over one TCP broker, each on its
// own client connection as three OS processes would: leaf (layer 0 and the
// valves), mid (layer 1) and root. cfgFor builds each tier's config — every
// tier must pass an identical one, save what is the process's own (its
// checkpoint store, its hooks).
func openTiers(t *testing.T, ctx context.Context, cfgFor func(tier string) LiveConfig) (leaf, mid, root *NodeSession) {
	t.Helper()
	addr := startNodeBroker(t)
	open := func(name string, tier NodeTier) *NodeSession {
		n, err := OpenNode(ctx, withBus(cfgFor(name), dialNodeBus(t, addr)), tier)
		if err != nil {
			t.Fatalf("OpenNode(%s): %v", name, err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	root = open("root", NodeTier{Root: true})
	mid = open("mid", NodeTier{Layers: []int{1}})
	leaf = open("leaf", NodeTier{Layers: []int{0}, Ingest: true})
	return leaf, mid, root
}

// finishTiers ends a three-tier run the way separate processes do: the leaf
// finishes ingesting, every tier waits for the root's completion marker, the
// edge tiers drain, and all three close.
func finishTiers(t *testing.T, ctx context.Context, leaf, mid, root *NodeSession) (leafRes, midRes, rootRes *LiveResult) {
	t.Helper()
	if err := leaf.FinishIngest(); err != nil {
		t.Fatalf("FinishIngest: %v", err)
	}
	for _, n := range []*NodeSession{root, mid, leaf} {
		if err := n.WaitDone(ctx); err != nil {
			t.Fatalf("WaitDone: %v", err)
		}
	}
	for _, n := range []*NodeSession{leaf, mid} {
		if err := n.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	return leaf.Close(), mid.Close(), root.Close()
}

// TestNodeTiersAdaptiveStepConvergence is TestLiveAdaptiveStepConvergence
// across three node sessions over TCP: the controller steps on the root tier
// and reaches the edge members only through the control topic. Every tier
// passes an identically built controller; the root's observes.
func TestNodeTiersAdaptiveStepConvergence(t *testing.T) {
	poisonStaleBytes(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	leaf, mid, root := openTiers(t, ctx, func(tier string) LiveConfig {
		ctl := newStepController()
		cfg := adaptiveLiveConfig(ctl)
		if tier == "root" {
			var windows int
			cfg.OnWindow = func(WindowResult) {
				if windows++; windows == stepAt {
					ctl.SetTarget(1e-9)
				}
			}
		}
		return cfg
	})
	cfg := adaptiveLiveConfig(nil)
	leaf.feed(cfg.Source, cfg.Items)
	if err := leaf.SetTarget(0.1); !errors.Is(err, ErrNotAdaptive) {
		t.Fatalf("leaf SetTarget: err = %v, want ErrNotAdaptive", err)
	}
	if snap := leaf.Snapshot(); snap.Fraction != 0 || snap.Target != 0 {
		t.Fatalf("leaf snapshot reports the root's controller: fraction %g, target %g", snap.Fraction, snap.Target)
	}
	leafRes, midRes, rootRes := finishTiers(t, ctx, leaf, mid, root)
	if got := root.Target(); got != 1e-9 {
		t.Fatalf("root Target() = %g, want the stepped 1e-9", got)
	}
	if late := leafRes.LateDropped + midRes.LateDropped + rootRes.LateDropped; late != 0 {
		t.Fatalf("%d ingest-stamped items dropped late", late)
	}
	var input float64
	for _, w := range rootRes.Windows {
		input += w.EstimatedInput
	}
	assertCountInvariant(t, "adaptive node tiers", input, float64(leafRes.Produced))
	assertStepConvergence(t, rootRes.Fractions)
}

// TestNodeTiersKillRestart is the crash-recovery round across three node
// sessions over TCP, each process with its own file checkpoint store: a
// layer-0 member dies and restarts on the leaf tier, a layer-1 member on the
// mid tier, each replaying its gap from the shared broker. Every produced
// item is accounted for exactly — Σ root EstimatedInput + every tier's
// LateDroppedInput = Produced — windows stay monotone, and no save fails.
func TestNodeTiersKillRestart(t *testing.T) {
	poisonStaleBytes(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	leaf, mid, root := openTiers(t, ctx, func(string) LiveConfig {
		store, err := checkpoint.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		cfg := elasticConfig(store)
		cfg.LayerShards = []int{2, 2}
		cfg.EventTime = true
		cfg.AllowedLateness = 300 * time.Millisecond
		return cfg
	})
	victims := []struct {
		tier     *NodeSession
		node, id string
	}{{leaf, "edge1-2", "edge1-2-shard1"}, {mid, "edge2-0", "edge2-0-shard1"}}
	if err := leaf.KillMember("edge2-0-shard1"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("leaf KillMember of a mid member: err = %v, want ErrUnknownMember", err)
	}

	const rounds, perSlot, slots = 10, 30, 8
	span := 300 * time.Millisecond
	for r := 0; r < rounds; r++ {
		for slot := 0; slot < slots; slot++ {
			items := make([]stream.Item, perSlot)
			for k := range items {
				items[k] = stream.Item{
					Source: stream.SourceID(fmt.Sprintf("s%d", slot)),
					Value:  float64(slot + 1),
					Ts: simEpoch.Add(time.Duration(r)*span +
						time.Duration(k)*span/perSlot +
						time.Duration(slot)*time.Millisecond),
				}
			}
			if err := leaf.Push(slot, items...); err != nil {
				t.Fatalf("round %d slot %d: %v", r, slot, err)
			}
		}
		for _, v := range victims {
			want := ""
			switch r {
			case 3:
				if err := v.tier.KillMember(v.id); err != nil {
					t.Fatalf("KillMember(%s): %v", v.id, err)
				}
				want = "killed"
			case 6:
				if err := v.tier.RestartMember(v.id); err != nil {
					t.Fatalf("RestartMember(%s): %v", v.id, err)
				}
				want = "live"
			}
			if want != "" {
				members, err := v.tier.GroupMembers(v.node)
				if err != nil || len(members) != 2 || members[1].ID != v.id || members[1].State != want {
					t.Fatalf("GroupMembers(%s) = %v (err %v), want %s %s", v.node, members, err, v.id, want)
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	leafRes, midRes, rootRes := finishTiers(t, ctx, leaf, mid, root)

	if want := int64(rounds * perSlot * slots); leafRes.Produced != want {
		t.Fatalf("produced %d, want %d", leafRes.Produced, want)
	}
	var estimated float64
	for i, w := range rootRes.Windows {
		estimated += w.EstimatedInput
		if w.End.Sub(w.Start) != topology.Testbed().Window {
			t.Fatalf("window %d spans %v", i, w.End.Sub(w.Start))
		}
		if i > 0 && !w.Start.After(rootRes.Windows[i-1].Start) {
			t.Fatalf("window %d start %v not after %v — watermark regressed", i, w.Start, rootRes.Windows[i-1].Start)
		}
	}
	late := leafRes.LateDroppedInput + midRes.LateDroppedInput + rootRes.LateDroppedInput
	assertCountInvariant(t, "kill/restart node tiers", estimated+late, float64(leafRes.Produced))
	for _, n := range []*NodeSession{leaf, mid, root} {
		if errs := n.Snapshot().CheckpointErrors; errs != 0 {
			t.Fatalf("checkpoint errors %d, want 0", errs)
		}
	}
}
