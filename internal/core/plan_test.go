package core

import (
	"errors"
	"testing"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/topology"
)

func testPlanConfig() PlanConfig {
	return PlanConfig{
		Spec:       topology.Testbed(),
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: 0.5},
		Seed:       7,
	}
}

func TestCompilePlanWiring(t *testing.T) {
	plan, err := CompilePlan(testPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Spec

	// One descriptor per node, laid out by (layer, index).
	if len(plan.Layers) != len(spec.Layers) {
		t.Fatalf("plan has %d layers, spec %d", len(plan.Layers), len(spec.Layers))
	}
	for l, layer := range plan.Layers {
		if len(layer) != spec.Layers[l].Nodes {
			t.Fatalf("layer %d has %d descriptors, want %d", l, len(layer), spec.Layers[l].Nodes)
		}
		for i, d := range layer {
			if d.Layer != l || d.Index != i {
				t.Fatalf("descriptor at [%d][%d] claims (%d,%d)", l, i, d.Layer, d.Index)
			}
			if d.SamplerSeed != nodeSeed(l, i, plan.Seed) {
				t.Fatalf("node (%d,%d) seed lineage %d, want %d", l, i, d.SamplerSeed, nodeSeed(l, i, plan.Seed))
			}
		}
	}

	// Parent edges match topology.ParentIndex and point one layer up;
	// parent topics name the parent's input topic.
	for l := 0; l < plan.RootLayer(); l++ {
		for i, d := range plan.Layers[l] {
			if d.IsRoot {
				t.Fatalf("edge node (%d,%d) marked root", l, i)
			}
			wantParent := topology.ParentIndex(spec.Layers[l].Nodes, spec.Layers[l+1].Nodes, i)
			if d.ParentLayer != l+1 || d.ParentIndex != wantParent {
				t.Fatalf("node (%d,%d) parent (%d,%d), want (%d,%d)",
					l, i, d.ParentLayer, d.ParentIndex, l+1, wantParent)
			}
			if d.ParentTopic != plan.Layers[l+1][wantParent].Topic {
				t.Fatalf("node (%d,%d) parent topic %q, want %q",
					l, i, d.ParentTopic, plan.Layers[l+1][wantParent].Topic)
			}
		}
	}

	root := plan.Root()
	if !root.IsRoot || root.ParentLayer != -1 || root.ParentIndex != -1 || root.ParentTopic != "" {
		t.Fatalf("root descriptor = %+v, want terminal", root)
	}

	// Sources map onto layer 0 exactly as ParentIndex dictates.
	if len(plan.Sources) != spec.Sources {
		t.Fatalf("%d source descriptors, want %d", len(plan.Sources), spec.Sources)
	}
	for s, sd := range plan.Sources {
		want := topology.ParentIndex(spec.Sources, spec.Layers[0].Nodes, s)
		if sd.ParentIndex != want {
			t.Fatalf("source %d parent %d, want %d", s, sd.ParentIndex, want)
		}
		if sd.Topic != plan.Layers[0][want].Topic {
			t.Fatalf("source %d topic %q, want %q", s, sd.Topic, plan.Layers[0][want].Topic)
		}
	}

	// One topic per computing node plus the control topic, defaulting to
	// one partition.
	topics := plan.Topics()
	if len(topics) != spec.NodeCount()+1 {
		t.Fatalf("%d topics, want %d nodes + control", len(topics), spec.NodeCount())
	}
	seen := make(map[string]bool)
	for _, td := range topics {
		if td.Partitions != 1 {
			t.Fatalf("topic %q has %d partitions, want default 1", td.Name, td.Partitions)
		}
		if seen[td.Name] {
			t.Fatalf("duplicate topic %q", td.Name)
		}
		seen[td.Name] = true
	}
	if plan.ControlTopic == "" || !seen[plan.ControlTopic] {
		t.Fatalf("control topic %q missing from Topics()", plan.ControlTopic)
	}
}

func TestCompilePlanDefaultsAndErrors(t *testing.T) {
	plan, err := CompilePlan(testPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Queries) != 1 || plan.Queries[0] != query.Sum {
		t.Fatalf("default queries = %v, want [Sum]", plan.Queries)
	}
	if plan.Partitions != 1 || plan.RootShards != 1 {
		t.Fatalf("defaults Partitions=%d RootShards=%d, want 1/1", plan.Partitions, plan.RootShards)
	}

	cfg := testPlanConfig()
	cfg.NewSampler = nil
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrNoSampler) {
		t.Fatalf("err = %v, want ErrNoSampler", err)
	}
	cfg = testPlanConfig()
	cfg.Cost = nil
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrNoCost) {
		t.Fatalf("err = %v, want ErrNoCost", err)
	}
	cfg = testPlanConfig()
	cfg.Spec.Sources = 0
	if _, err := CompilePlan(cfg); !errors.Is(err, topology.ErrNoSources) {
		t.Fatalf("err = %v, want wrapped topology.ErrNoSources", err)
	}
	cfg = testPlanConfig()
	cfg.Partitions = -1
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrNoPartitions) {
		t.Fatalf("err = %v, want ErrNoPartitions", err)
	}
	cfg = testPlanConfig()
	cfg.RootShards = -1
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrNoRootShards) {
		t.Fatalf("err = %v, want ErrNoRootShards", err)
	}
	cfg = testPlanConfig()
	cfg.Partitions = 2
	cfg.RootShards = 3
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrShardsExceedPartitions) {
		t.Fatalf("err = %v, want ErrShardsExceedPartitions", err)
	}
}

func TestPlanRootShardSplitsFixedBudget(t *testing.T) {
	// FixedBudget is the root's total sample cap: with N shards each shard
	// gets Size/N so the merged window never exceeds the configured cap.
	cfg := testPlanConfig()
	cfg.Cost = FixedBudget{Size: 200}
	cfg.Partitions = 4
	cfg.RootShards = 4
	plan, err := CompilePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for shard := 0; shard < 4; shard++ {
		n := plan.NewRootShard(shard)
		n.IngestItems(mkItems("a", make([]float64, 100)...))
		out := n.CloseInterval()
		var kept int
		for _, b := range out {
			kept += len(b.Items)
		}
		if kept > 50 {
			t.Fatalf("shard %d kept %d items, want ≤ 200/4", shard, kept)
		}
		total += kept
	}
	if total != 200 {
		t.Fatalf("shards kept %d items total, want the full 200 cap", total)
	}
	// An uneven cap spreads its remainder across the low shards: 10 over 3
	// shards is 4+3+3, never truncated to 3+3+3 and never zero while the
	// cap covers the shard count.
	cfg.Cost = FixedBudget{Size: 10}
	cfg.RootShards = 3
	cfg.Partitions = 3
	uneven, err := CompilePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for shard := 0; shard < 3; shard++ {
		n := uneven.NewRootShard(shard)
		n.IngestItems(mkItems("a", make([]float64, 50)...))
		var kept int
		for _, b := range n.CloseInterval() {
			kept += len(b.Items)
		}
		total += kept
	}
	if total != 10 {
		t.Fatalf("uneven shards kept %d items total, want the full 10 cap", total)
	}

	// Edge nodes and input-relative budgets are untouched by the split.
	edge := plan.NewNode(plan.Layers[0][0])
	edge.IngestItems(mkItems("a", make([]float64, 300)...))
	var kept int
	for _, b := range edge.CloseInterval() {
		kept += len(b.Items)
	}
	if kept == 0 || kept > 200 {
		t.Fatalf("edge node kept %d items, want full FixedBudget 200 cap", kept)
	}
}

func TestPlanRootShardSeedLineage(t *testing.T) {
	// Shard 0 must carry the canonical root lineage so RootShards=1 samples
	// exactly like the unsharded root; higher shards must diverge.
	plan, err := CompilePlan(testPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := plan.Root()
	shard0 := plan.NewRootShard(0)
	if shard0.ID() != root.ID {
		t.Fatalf("shard 0 ID %q, want root ID %q", shard0.ID(), root.ID)
	}
	shard1 := plan.NewRootShard(1)
	if shard1.ID() == shard0.ID() {
		t.Fatal("shard 1 must have its own identity")
	}
}

func TestPlanPartitionKnobsPropagate(t *testing.T) {
	cfg := testPlanConfig()
	cfg.Partitions = 8
	cfg.RootShards = 4
	plan, err := CompilePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitions != 8 || plan.RootShards != 4 {
		t.Fatalf("knobs = %d/%d, want 8/4", plan.Partitions, plan.RootShards)
	}
	for _, td := range plan.Topics() {
		if td.Name == plan.ControlTopic {
			// Control records need one total order across every consumer,
			// so the control topic never partitions.
			if td.Partitions != 1 {
				t.Fatalf("control topic compiled with %d partitions, want 1", td.Partitions)
			}
			continue
		}
		if td.Partitions != 8 {
			t.Fatalf("topic %q compiled with %d partitions, want 8", td.Name, td.Partitions)
		}
	}
}

func TestPlanLayerShards(t *testing.T) {
	// Defaults: every descriptor is a single-member group.
	plan, err := CompilePlan(testPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	for l, layer := range plan.Layers {
		for _, d := range layer {
			if d.Shards != 1 {
				t.Fatalf("default node (%d,%d) has %d shards, want 1", l, d.Index, d.Shards)
			}
		}
	}
	if len(plan.LayerShards) != len(plan.Spec.Layers) {
		t.Fatalf("normalized LayerShards has %d entries, want one per layer (%d)", len(plan.LayerShards), len(plan.Spec.Layers))
	}

	// Explicit per-layer counts land on the descriptors; zero entries
	// default; the root entry mirrors RootShards.
	cfg := testPlanConfig()
	cfg.Partitions = 8
	cfg.RootShards = 4
	cfg.LayerShards = []int{3, 0}
	plan, err = CompilePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 4}
	for l, layer := range plan.Layers {
		for _, d := range layer {
			if d.Shards != want[l] {
				t.Fatalf("node (%d,%d) has %d shards, want %d", l, d.Index, d.Shards, want[l])
			}
		}
	}
	if plan.LayerShards[plan.RootLayer()] != 4 {
		t.Fatalf("normalized root entry = %d, want RootShards 4", plan.LayerShards[plan.RootLayer()])
	}

	// Validation: negative entries, entries beyond the partitions, and
	// attempts to size the root layer are all rejected.
	cfg = testPlanConfig()
	cfg.LayerShards = []int{-1}
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrNegativeLayerShards) {
		t.Fatalf("err = %v, want ErrNegativeLayerShards", err)
	}
	cfg = testPlanConfig()
	cfg.Partitions = 2
	cfg.LayerShards = []int{3}
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrShardsExceedPartitions) {
		t.Fatalf("err = %v, want ErrShardsExceedPartitions", err)
	}
	cfg = testPlanConfig()
	cfg.Partitions = 4
	cfg.LayerShards = []int{1, 1, 2}
	if _, err := CompilePlan(cfg); !errors.Is(err, ErrLayerShardsRoot) {
		t.Fatalf("err = %v, want ErrLayerShardsRoot", err)
	}
}

func TestPlanNodeShardIdentityAndLineage(t *testing.T) {
	// Shard 0 of any node must be indistinguishable from the unsharded
	// node (canonical identity and seed lineage); members beyond 0 get
	// their own identity and a lineage that collides with no tree node's.
	cfg := testPlanConfig()
	cfg.Partitions = 4
	cfg.RootShards = 2
	cfg.LayerShards = []int{2, 2}
	plan, err := CompilePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, layer := range plan.Layers {
		for _, d := range layer {
			shard0 := plan.NewNodeShard(d, 0)
			if shard0.ID() != d.ID {
				t.Fatalf("shard 0 of %s has ID %q", d.ID, shard0.ID())
			}
			for shard := 0; shard < d.Shards; shard++ {
				id := plan.NewNodeShard(d, shard).ID()
				if seen[id] {
					t.Fatalf("duplicate member identity %q", id)
				}
				seen[id] = true
			}
		}
	}
	// Salted shard seeds collide with no node seed of any layer.
	nodeSeeds := make(map[uint64]string)
	for l, layer := range plan.Layers {
		for _, d := range layer {
			nodeSeeds[nodeSeed(l, d.Index, plan.Seed)] = d.ID
		}
	}
	for l, layer := range plan.Layers {
		for _, d := range layer {
			for shard := 1; shard < d.Shards; shard++ {
				s := nodeSeed(l, d.Index, shardSeed(plan.Seed, shard))
				if owner, ok := nodeSeeds[s]; ok {
					t.Fatalf("shard %d of %s shares seed lineage with node %s", shard, d.ID, owner)
				}
			}
		}
	}
}
