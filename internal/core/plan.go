package core

import (
	"errors"
	"fmt"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/topology"
)

// This file is the deployment-plan layer: the single place where a logical
// topology.TreeSpec is compiled into concrete node wiring. Both runners —
// RunSim (virtual time + WAN emulation) and the live session layer behind
// OpenLive (goroutines over the mq broker; RunLive is its batch-shaped
// wrapper) — execute the same compiled Plan, so a spec that validates and
// wires one way in simulation is guaranteed to validate and wire the same
// way live. Before the plan existed each runner re-derived the tree walk,
// topic names, parent edges, and sampler seeding by hand.

// Plan-compilation errors.
var (
	// ErrNoPartitions rejects a negative PlanConfig.Partitions (0 selects
	// the single-partition default).
	ErrNoPartitions = errors.New("core: PlanConfig.Partitions must be at least 1")
	// ErrNoRootShards rejects a negative PlanConfig.RootShards (0 selects
	// the single-member default).
	ErrNoRootShards = errors.New("core: PlanConfig.RootShards must be at least 1")
	// ErrShardsExceedPartitions rejects a consumer group sized beyond the
	// topic's partition count: the surplus members would own nothing.
	ErrShardsExceedPartitions = errors.New("core: shard count must not exceed Partitions (extra shards would own no partitions)")
	// ErrNegativeLayerShards rejects a negative LayerShards entry (0 means
	// "default this layer to one member").
	ErrNegativeLayerShards = errors.New("core: LayerShards entries must be non-negative")
	// ErrLayerShardsRoot rejects a LayerShards slice long enough to reach
	// the root layer, whose group is sized by RootShards alone.
	ErrLayerShardsRoot = errors.New("core: LayerShards configures edge layers only; size the root group with RootShards")
)

// PlanConfig is the mode-independent description of a deployment: everything
// both the simulated and the live runner need to agree on.
type PlanConfig struct {
	// Spec is the logical tree (sources, layers, window).
	Spec topology.TreeSpec
	// NewSampler builds each node's sampling strategy. Required.
	NewSampler SamplerFactory
	// Cost is the budget policy shared by all nodes. Required.
	Cost CostFunction
	// Queries lists the root's aggregates (default SUM).
	Queries []query.Kind
	// Seed is the root of every node's seed lineage.
	Seed uint64
	// Partitions is the partition count of every live mq topic (default 1).
	// Records are keyed by SourceID, so one sub-stream always lands in one
	// partition and per-stratum ordering is preserved.
	Partitions int
	// RootShards is the size of the live root consumer group (default 1).
	// Each shard aggregates the partitions it owns; shards merge at window
	// close. Must not exceed Partitions.
	RootShards int
	// LayerShards sizes the live consumer group of every node in an edge
	// layer, indexed by layer (missing or zero entries default to 1). Each
	// member owns a private sampling node over the partitions it is
	// assigned and forwards its weighted batches independently — Eq. 8
	// weight compounding keeps the count estimate exact at any shard
	// count, so no merge barrier exists between members. Entries must not
	// exceed Partitions; the root layer is sized by RootShards, so
	// LayerShards must be shorter than the layer list.
	LayerShards []int
}

// NodeDesc is one compiled computing node of the tree: pure data, ready for
// either runner to instantiate.
type NodeDesc struct {
	// ID names the node ("edge1-3", "root-0").
	ID string
	// Layer and Index locate the node in the tree (bottom-up layers).
	Layer, Index int
	// ParentLayer / ParentIndex locate the parent edge; -1/-1 at the root.
	ParentLayer, ParentIndex int
	// Topic is the node's input topic in live mode.
	Topic string
	// ParentTopic is the topic the node forwards into ("" at the root).
	ParentTopic string
	// SamplerSeed records the node's seed lineage as the built-in sampler
	// factories derive it from (layer, index, plan seed) — introspection
	// metadata; a custom SamplerFactory may mix its inputs differently.
	SamplerSeed uint64
	// Shards is the size of the node's live consumer group: how many
	// members jointly consume Topic, each with a private sampling node
	// (LayerShards for edge layers, RootShards at the root; always ≥ 1).
	Shards int
	// IsRoot marks the datacenter node.
	IsRoot bool
}

// SourceDesc wires one IoT source into the first layer.
type SourceDesc struct {
	// Index is the source number.
	Index int
	// ParentIndex is the layer-0 node this source feeds.
	ParentIndex int
	// Topic is the live topic the source publishes into.
	Topic string
}

// TopicDesc is one live mq topic the plan requires.
type TopicDesc struct {
	// Name is the topic name ("layer0-node2", "control").
	Name string
	// Partitions is the partition count the topic must be created with.
	Partitions int
}

// Plan is an immutable compiled deployment: node descriptors per layer,
// source wiring, topic list, and the factories needed to instantiate nodes.
// Compile once, execute in any mode.
type Plan struct {
	// Spec echoes the validated tree spec.
	Spec topology.TreeSpec
	// Queries is the normalized query set (never empty).
	Queries []query.Kind
	// Seed is the plan-wide seed root.
	Seed uint64
	// Partitions, RootShards, and LayerShards are the live-mode
	// parallelism knobs. LayerShards is normalized to one entry per layer
	// (the root entry mirrors RootShards, every entry ≥ 1).
	Partitions  int
	RootShards  int
	LayerShards []int
	// Layers holds one descriptor per node, indexed [layer][node].
	Layers [][]NodeDesc
	// Sources holds one descriptor per IoT source.
	Sources []SourceDesc
	// ControlTopic is the deployment's single-partition control channel:
	// the live root publishes fraction updates (§IV-B feedback) into it and
	// every shard-group member drains it at its window boundaries. It is
	// part of every compiled plan — an adaptive run uses it, a frozen-cost
	// run just leaves it empty.
	ControlTopic string

	newSampler SamplerFactory
	cost       CostFunction
}

// topicName names the mq topic feeding node (layer, idx).
func topicName(layer, idx int) string {
	return fmt.Sprintf("layer%d-node%d", layer, idx)
}

// ControlTopicName names the per-deployment control topic. Node topics are
// all "layer<l>-node<i>", so the name cannot collide. Exported so callers
// can look the control plane up in bandwidth accounts without duplicating
// the string.
const ControlTopicName = "control"

// CompilePlan validates the configuration and compiles the tree into an
// explicit node graph. It is the only place parent edges and topic names
// are derived.
func CompilePlan(cfg PlanConfig) (*Plan, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid tree spec: %w", err)
	}
	if cfg.NewSampler == nil {
		return nil, ErrNoSampler
	}
	if cfg.Cost == nil {
		return nil, ErrNoCost
	}
	if len(cfg.Queries) == 0 {
		cfg.Queries = []query.Kind{query.Sum}
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions < 0 {
		return nil, ErrNoPartitions
	}
	if cfg.RootShards == 0 {
		cfg.RootShards = 1
	}
	if cfg.RootShards < 0 {
		return nil, ErrNoRootShards
	}
	if cfg.RootShards > cfg.Partitions {
		return nil, fmt.Errorf("%w: RootShards %d over %d partitions", ErrShardsExceedPartitions, cfg.RootShards, cfg.Partitions)
	}

	spec := cfg.Spec
	rootLayer := spec.RootLayer()
	if len(cfg.LayerShards) > rootLayer {
		return nil, ErrLayerShardsRoot
	}
	layerShards := make([]int, len(spec.Layers))
	for l := range layerShards {
		layerShards[l] = 1
	}
	layerShards[rootLayer] = cfg.RootShards
	for l, s := range cfg.LayerShards {
		if s < 0 {
			return nil, fmt.Errorf("%w: layer %d wants %d", ErrNegativeLayerShards, l, s)
		}
		if s == 0 {
			continue
		}
		if s > cfg.Partitions {
			return nil, fmt.Errorf("%w: layer %d wants %d shards over %d partitions", ErrShardsExceedPartitions, l, s, cfg.Partitions)
		}
		layerShards[l] = s
	}

	p := &Plan{
		Spec:         spec,
		Queries:      append([]query.Kind(nil), cfg.Queries...),
		Seed:         cfg.Seed,
		Partitions:   cfg.Partitions,
		RootShards:   cfg.RootShards,
		LayerShards:  layerShards,
		Layers:       make([][]NodeDesc, len(spec.Layers)),
		Sources:      make([]SourceDesc, spec.Sources),
		ControlTopic: ControlTopicName,
		newSampler:   cfg.NewSampler,
		cost:         cfg.Cost,
	}
	for l, ls := range spec.Layers {
		p.Layers[l] = make([]NodeDesc, ls.Nodes)
		for i := 0; i < ls.Nodes; i++ {
			d := NodeDesc{
				ID:          fmt.Sprintf("%s-%d", ls.Name, i),
				Layer:       l,
				Index:       i,
				ParentLayer: -1,
				ParentIndex: -1,
				Topic:       topicName(l, i),
				SamplerSeed: nodeSeed(l, i, cfg.Seed),
				Shards:      layerShards[l],
				IsRoot:      l == rootLayer,
			}
			if !d.IsRoot {
				d.ParentLayer = l + 1
				d.ParentIndex = topology.ParentIndex(ls.Nodes, spec.Layers[l+1].Nodes, i)
				d.ParentTopic = topicName(d.ParentLayer, d.ParentIndex)
			}
			p.Layers[l][i] = d
		}
	}
	for s := 0; s < spec.Sources; s++ {
		parent := topology.ParentIndex(spec.Sources, spec.Layers[0].Nodes, s)
		p.Sources[s] = SourceDesc{Index: s, ParentIndex: parent, Topic: topicName(0, parent)}
	}
	return p, nil
}

// RootLayer returns the index of the root layer.
func (p *Plan) RootLayer() int { return p.Spec.RootLayer() }

// Root returns the root node's descriptor.
func (p *Plan) Root() NodeDesc { return p.Layers[p.RootLayer()][0] }

// Topics lists every live topic the plan requires — one per node with the
// plan's partition count, in deterministic (layer, node) order, plus the
// single-partition control topic last. Control records must reach every
// shard-group member in one total order, so the control topic never
// partitions regardless of the data-plane partition count.
func (p *Plan) Topics() []TopicDesc {
	var out []TopicDesc
	for _, layer := range p.Layers {
		for _, d := range layer {
			out = append(out, TopicDesc{Name: d.Topic, Partitions: p.Partitions})
		}
	}
	out = append(out, TopicDesc{Name: p.ControlTopic, Partitions: 1})
	return out
}

// NewNode instantiates a descriptor as a sampling node, seeding its sampler
// from the plan's seed lineage.
func (p *Plan) NewNode(d NodeDesc) *Node {
	return NewNode(d.ID, p.newSampler(d.Layer, d.Index, p.Seed), p.cost)
}

// shardSeed salts the plan seed for shard members beyond the canonical
// shard 0. The salt is a per-shard odd-constant multiple (a bijection on
// uint64), so a shard's (layer, index, salted seed) lineage collides with
// no tree node's and with no other shard's.
func shardSeed(seed uint64, shard int) uint64 {
	return seed + uint64(shard)*0x9e3779b97f4a7c15
}

// NewNodeShard instantiates one consumer-group member of a compiled node.
// Shard 0 carries the node's canonical identity and seed lineage, so a
// single-member group samples identically to the unsharded node; members
// beyond 0 get their own identity and a salted seed lineage.
//
// Each member applies the plan's cost function over the partitions it
// owns. Input-relative budgets (FractionBudget, EffectiveFractionBudget,
// the feedback controller) compose exactly — the members jointly observe
// the same input a single node would. The absolute FixedBudget is the
// node's *total* sample cap, so it is divided across the group here; a
// custom CostFunction with absolute semantics is applied per member as-is.
func (p *Plan) NewNodeShard(d NodeDesc, shard int) *Node {
	return p.NewNodeShardCost(d, shard, p.cost)
}

// NewNodeShardCost is NewNodeShard with the member's cost function
// overridden — the adaptive live runner uses it to give every member a
// private control-plane-driven budget in place of the plan's frozen one.
// The FixedBudget group split applies to the override exactly as it would
// to the plan cost.
func (p *Plan) NewNodeShardCost(d NodeDesc, shard int, cost CostFunction) *Node {
	id := memberID(d, shard)
	if fb, ok := cost.(FixedBudget); ok && d.Shards > 1 {
		// Spread the cap exactly: Size/N each, remainder to the low shards,
		// so shard budgets total Size and none is starved unless Size < N.
		size := fb.Size / d.Shards
		if shard < fb.Size%d.Shards {
			size++
		}
		cost = FixedBudget{Size: size}
	}
	return NewNode(id, p.newSampler(d.Layer, d.Index, shardSeed(p.Seed, shard)), cost)
}

// memberID names one consumer-group member of a compiled node: shard 0
// carries the node's canonical identity, members beyond get a -shardN
// suffix. Telemetry keys (LiveResult.Nodes) and watermark chain origins
// use these names.
func memberID(d NodeDesc, shard int) string {
	if shard > 0 {
		return fmt.Sprintf("%s-shard%d", d.ID, shard)
	}
	return d.ID
}

// sourceFrom names source slot i's watermark chain origin — the identity
// its ingestion valve stamps on the records it produces.
func sourceFrom(slot int) string { return fmt.Sprintf("src%d", slot) }

// ExpectedProducers lists the watermark origins statically known to feed
// node d: the source valves of its slots (layer 0) or every consumer group
// member of its child nodes. Event-time members register these as
// expectations, so a producer the member has not yet heard from holds the
// watermark back instead of being silently absent from the minimum — the
// difference between an exact window and one that closes before a slow
// sibling's data arrives. A producer's first real stamp resolves its
// expectation: a valve's chains, or a member's lane floors, bound it from
// then on.
func (p *Plan) ExpectedProducers(d NodeDesc) []string {
	var out []string
	if d.Layer == 0 {
		for _, src := range p.Sources {
			if src.ParentIndex == d.Index {
				out = append(out, sourceFrom(src.Index))
			}
		}
		return out
	}
	for _, child := range p.Layers[d.Layer-1] {
		if child.ParentIndex != d.Index {
			continue
		}
		for shard := 0; shard < child.Shards; shard++ {
			out = append(out, memberID(child, shard))
		}
	}
	return out
}

// NewRootShard instantiates one member of the root's sampling stage; the
// live runner merges member outputs at window close (weight compounding
// makes the merged estimate exact at any member count).
func (p *Plan) NewRootShard(shard int) *Node {
	return p.NewNodeShard(p.Root(), shard)
}

// NewRoot instantiates the full root node — sampling stage plus query
// engine — for single-consumer execution outside the runners (both compose
// NewRootShard with the query engine themselves, so shards can merge at
// window close).
func (p *Plan) NewRoot(engine *query.Engine) *Root {
	root := p.Root()
	return NewRoot(root.ID, p.newSampler(root.Layer, root.Index, p.Seed), p.cost, engine, p.Queries...)
}
