package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/checkpoint"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/xrand"
)

// elasticConfig is the shared deployment for rescale/recovery tests: the
// paper testbed over 4 partitions, layer-0 groups starting at 2 members,
// FixedBudget so the dynamic groupBudget split engages.
func elasticConfig(store checkpoint.Store) LiveConfig {
	return LiveConfig{
		Spec:        topology.Testbed(),
		NewSampler:  WHSFactory(),
		Cost:        FixedBudget{Size: 96},
		Window:      20 * time.Millisecond,
		Queries:     []query.Kind{query.Sum, query.Count},
		Seed:        11,
		Partitions:  4,
		LayerShards: []int{2},
		Checkpoint:  store,
	}
}

// pushRounds pushes perRound items into every source slot, rounds times,
// invoking between(r) after each round — the hook is where tests kill,
// restart, add, and remove mid-flow. Pushes rejected because a leaf is
// detached are tolerated (they are not counted into Produced either).
func pushRounds(t *testing.T, s *LiveSession, rounds, perRound int, between func(r int)) {
	t.Helper()
	slots := s.plan.Spec.Sources
	ings := make([]*Ingester, slots)
	for i := range ings {
		ing, err := s.Ingester(i)
		if err != nil {
			t.Fatalf("Ingester(%d): %v", i, err)
		}
		ings[i] = ing
	}
	for r := 0; r < rounds; r++ {
		for slot, ing := range ings {
			items := make([]stream.Item, perRound)
			for k := range items {
				items[k] = stream.Item{
					Source: stream.SourceID(fmt.Sprintf("s%d", slot)),
					Value:  float64(slot+1) + 0.01*float64(k),
				}
			}
			if err := ing.Push(items...); err != nil && !errors.Is(err, ErrNodeDetached) {
				t.Fatalf("round %d slot %d: %v", r, slot, err)
			}
		}
		if between != nil {
			between(r)
		}
	}
}

// TestGroupBudgetShareProperty is the property form of the re-split
// contract: under any random join/leave sequence the live shares always
// sum to the configured total, no two shares differ by more than one, and
// the initial shard-order join reproduces the static NewNodeShardCost
// split exactly (cross-mode equivalence depends on that).
func TestGroupBudgetShareProperty(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 40; trial++ {
		total := 1 + int(rng.Uint64()%200)
		b := newGroupBudget(total)
		var ids []string
		next := 0
		for op := 0; op < 60; op++ {
			if len(ids) == 0 || rng.Uint64()%3 != 0 {
				id := fmt.Sprintf("m%d", next)
				next++
				b.join(id)
				ids = append(ids, id)
			} else {
				i := int(rng.Uint64() % uint64(len(ids)))
				b.leave(ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			}
			if len(ids) == 0 {
				continue
			}
			sum, lo, hi := 0, total+1, -1
			for _, id := range ids {
				s := b.share(id)
				sum += s
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			if sum != total {
				t.Fatalf("trial %d op %d: shares sum %d, want %d (n=%d)", trial, op, sum, total, len(ids))
			}
			if hi-lo > 1 {
				t.Fatalf("trial %d op %d: share spread %d..%d", trial, op, lo, hi)
			}
		}
	}
	// Shard-order joins == the static split.
	for _, tc := range []struct{ total, n int }{{96, 2}, {97, 3}, {5, 4}, {1, 1}, {10, 10}} {
		b := newGroupBudget(tc.total)
		for i := 0; i < tc.n; i++ {
			b.join(fmt.Sprintf("shard%d", i))
		}
		for i := 0; i < tc.n; i++ {
			want := tc.total / tc.n
			if i < tc.total%tc.n {
				want++
			}
			if got := b.share(fmt.Sprintf("shard%d", i)); got != want {
				t.Fatalf("total %d n %d shard %d: share %d, want %d", tc.total, tc.n, i, got, want)
			}
		}
	}
}

// TestElasticRescaleLive grows and shrinks a layer-0 group mid-run —
// pushes flowing the whole time — and demands the Eq. 8 count invariant
// exactly at close plus a budget split that still sums to the configured
// total for the final membership.
func TestElasticRescaleLive(t *testing.T) {
	s, err := OpenLive(nil, elasticConfig(checkpoint.NewMemoryStore()))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	const rounds, perRound = 12, 40
	pushRounds(t, s, rounds, perRound, func(r int) {
		switch r {
		case 2:
			if _, err := s.AddMember("edge1-0"); err != nil {
				t.Fatalf("AddMember r2: %v", err)
			}
		case 4:
			if _, err := s.AddMember("edge1-0"); err != nil {
				t.Fatalf("AddMember r4: %v", err)
			}
		case 6:
			if _, err := s.RemoveMember("edge1-0"); err != nil {
				t.Fatalf("RemoveMember r6: %v", err)
			}
		case 8:
			if _, err := s.RemoveMember("edge1-0"); err != nil {
				t.Fatalf("RemoveMember r8: %v", err)
			}
			if _, err := s.RemoveMember("edge1-0"); err != nil {
				t.Fatalf("RemoveMember r8b: %v", err)
			}
		}
		time.Sleep(s.cfg.Window / 2)
	})
	members, err := s.GroupMembers("edge1-0")
	if err != nil {
		t.Fatalf("GroupMembers: %v", err)
	}
	live, removed := 0, 0
	for _, m := range members {
		switch m.State {
		case "live":
			live++
		case "removed":
			removed++
		default:
			t.Fatalf("unexpected member state %q", m.State)
		}
	}
	if live != 1 || removed != 3 {
		t.Fatalf("membership live=%d removed=%d, want 1/3 (%v)", live, removed, members)
	}
	if g := s.groupByID["edge1-0"]; g.budget != nil {
		sum := 0
		for _, share := range g.budget.shares() {
			sum += share
		}
		if sum != 96 {
			t.Fatalf("live budget shares sum %d, want 96", sum)
		}
	} else {
		t.Fatal("FixedBudget group has no groupBudget")
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := int64(rounds * perRound * s.plan.Spec.Sources)
	if res.Produced != want {
		t.Fatalf("produced %d, want %d", res.Produced, want)
	}
	assertCountInvariant(t, "rescale live", res.EstimateCount, float64(res.Produced))
}

// TestElasticKillRestartProcTime crashes a member mid-flow — pushes keep
// coming while it is dead, its partitions rebalanced to the survivor —
// then restarts it from its checkpoint and demands the count invariant
// exactly at close: checkpoint restore plus gap replay must neither lose
// nor double-count a single item.
func TestElasticKillRestartProcTime(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	s, err := OpenLive(nil, elasticConfig(store))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	const victim = "edge1-1-shard1"
	const rounds, perRound = 12, 40
	pushRounds(t, s, rounds, perRound, func(r int) {
		switch r {
		case 3:
			// No settling sleep first: the kill should land with ingested-
			// but-unflushed state on the victim.
			if err := s.KillMember(victim); err != nil {
				t.Fatalf("KillMember: %v", err)
			}
			members, err := s.GroupMembers("edge1-1")
			if err != nil {
				t.Fatalf("GroupMembers: %v", err)
			}
			killed := 0
			for _, m := range members {
				if m.State == "killed" {
					killed++
				}
			}
			if killed != 1 {
				t.Fatalf("killed members %d, want 1 (%v)", killed, members)
			}
		case 7:
			if err := s.RestartMember(victim); err != nil {
				t.Fatalf("RestartMember: %v", err)
			}
		}
		time.Sleep(s.cfg.Window / 2)
	})
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := int64(rounds * perRound * s.plan.Spec.Sources)
	if res.Produced != want {
		t.Fatalf("produced %d, want %d", res.Produced, want)
	}
	assertCountInvariant(t, "kill/restart proc-time", res.EstimateCount, float64(res.Produced))
	if snap := s.Snapshot(); snap.CheckpointErrors != 0 {
		t.Fatalf("checkpoint errors %d, want 0", snap.CheckpointErrors)
	}
}

// TestElasticKillRestartEventTime is the crash-recovery round trip under
// event-time windowing, for both checkpoint backends: kill between
// checkpoints, restart, and the closed windows must still account for
// every produced item exactly — Σ EstimatedInput + LateDropped ==
// Produced — with window boundaries strictly monotone (the restored
// member's watermark never regresses past work already closed).
func TestElasticKillRestartEventTime(t *testing.T) {
	backends := []struct {
		name  string
		store func(t *testing.T) checkpoint.Store
	}{
		{"memory", func(*testing.T) checkpoint.Store { return checkpoint.NewMemoryStore() }},
		{"file", func(t *testing.T) checkpoint.Store {
			fs, err := checkpoint.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatalf("NewFileStore: %v", err)
			}
			return fs
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			cfg := elasticConfig(be.store(t))
			cfg.EventTime = true
			// Modest lateness and the default idle timeout: chains stranded
			// by the kill/restart rebalances resolve via idle aging, so a
			// large timeout here directly serializes into the close. Items a
			// rebalance pushes past the horizon land in LateDropped — which
			// the invariant below accounts for.
			cfg.AllowedLateness = 300 * time.Millisecond
			s, err := OpenLive(nil, cfg)
			if err != nil {
				t.Fatalf("OpenLive: %v", err)
			}
			const victim = "edge1-2-shard1"
			const rounds, perSlot = 10, 30
			base := simEpoch
			slots := s.plan.Spec.Sources
			ings := make([]*Ingester, slots)
			for i := range ings {
				if ings[i], err = s.Ingester(i); err != nil {
					t.Fatalf("Ingester(%d): %v", i, err)
				}
			}
			span := 300 * time.Millisecond
			for r := 0; r < rounds; r++ {
				for slot, ing := range ings {
					items := make([]stream.Item, perSlot)
					for k := range items {
						items[k] = stream.Item{
							Source: stream.SourceID(fmt.Sprintf("s%d", slot)),
							Value:  float64(slot + 1),
							Ts: base.Add(time.Duration(r)*span +
								time.Duration(k)*span/perSlot +
								time.Duration(slot)*time.Millisecond),
						}
					}
					if err := ing.Push(items...); err != nil {
						t.Fatalf("round %d slot %d: %v", r, slot, err)
					}
				}
				switch r {
				case 3:
					if err := s.KillMember(victim); err != nil {
						t.Fatalf("KillMember: %v", err)
					}
				case 6:
					if err := s.RestartMember(victim); err != nil {
						t.Fatalf("RestartMember: %v", err)
					}
				}
				time.Sleep(s.cfg.Window / 2)
			}
			res, err := s.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			want := int64(rounds * perSlot * slots)
			if res.Produced != want {
				t.Fatalf("produced %d, want %d", res.Produced, want)
			}
			var estimated float64
			for i, w := range res.Windows {
				estimated += w.EstimatedInput
				if w.End.Sub(w.Start) != s.plan.Spec.Window {
					t.Fatalf("window %d spans %v", i, w.End.Sub(w.Start))
				}
				if i > 0 && !w.Start.After(res.Windows[i-1].Start) {
					t.Fatalf("window %d start %v not after %v — watermark regressed",
						i, w.Start, res.Windows[i-1].Start)
				}
			}
			assertCountInvariant(t, "kill/restart event-time "+be.name,
				estimated+res.LateDroppedInput, float64(res.Produced))
			if snap := s.Snapshot(); snap.CheckpointErrors != 0 {
				t.Fatalf("checkpoint errors %d, want 0", snap.CheckpointErrors)
			}
		})
	}
}

// TestRestartCorruptCheckpointRejected pins the failure mode: a flipped
// byte in the on-disk blob fails the restart with ErrCorrupt, and so does an
// intact blob of a retired format — version 2, whose members above the leaf
// carried (producer, sub-stream) chains (the version2-member-chains fuzz
// seed). The member stays killed (and restartable), and restoring the
// original bytes lets the same restart succeed with the invariant intact.
func TestRestartCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	s, err := OpenLive(nil, elasticConfig(fs))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	const victim = "edge1-0-shard1"
	pushRounds(t, s, 4, 40, func(int) { time.Sleep(s.cfg.Window) })
	if err := s.KillMember(victim); err != nil {
		t.Fatalf("KillMember: %v", err)
	}
	path := filepath.Join(dir, victim+".ckpt")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint on disk for %s: %v", victim, err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("corrupt write: %v", err)
	}
	if err := s.RestartMember(victim); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("restart on corrupt blob: err = %v, want ErrCorrupt", err)
	}
	members, err := s.GroupMembers("edge1-0")
	if err != nil {
		t.Fatalf("GroupMembers: %v", err)
	}
	stillKilled := false
	for _, m := range members {
		if m.ID == victim && m.State == "killed" {
			stillKilled = true
		}
	}
	if !stillKilled {
		t.Fatalf("victim not restartable after failed restart: %v", members)
	}
	v2 := fuzzSeed(t, "FuzzMemberCheckpoint", "version2-member-chains")
	if _, err := decodeMemberCheckpoint(append([]byte{ckptVersion}, v2[1:]...)); err != nil {
		t.Fatalf("the version-2 seed is malformed beyond its version byte: %v", err)
	}
	if err := fs.Save(victim, v2); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.RestartMember(victim); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("restart on a version-2 blob: err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatalf("repair write: %v", err)
	}
	if err := s.RestartMember(victim); err != nil {
		t.Fatalf("restart after repair: %v", err)
	}
	pushRounds(t, s, 2, 40, func(int) { time.Sleep(s.cfg.Window) })
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	assertCountInvariant(t, "corrupt-then-repaired restart", res.EstimateCount, float64(res.Produced))
}

// TestCheckpointCodecGarbageRejected pins the codec contract: anything
// that is not a complete, well-formed blob decodes to ErrCorrupt, and a
// genuine blob round-trips. The genuine blob comes from a real killed
// member — the encoder has no other public entry point, deliberately.
func TestCheckpointCodecGarbageRejected(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	s, err := OpenLive(nil, elasticConfig(store))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	pushRounds(t, s, 4, 40, func(int) { time.Sleep(s.cfg.Window) })
	const victim = "edge1-3-shard1"
	if err := s.KillMember(victim); err != nil {
		t.Fatalf("KillMember: %v", err)
	}
	raw, err := store.Load(victim)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := decodeMemberCheckpoint(raw); err != nil {
		t.Fatalf("decode genuine blob: %v", err)
	}
	for name, bad := range map[string][]byte{
		"nil":       nil,
		"empty":     {},
		"garbage":   []byte("not a checkpoint"),
		"truncated": raw[:len(raw)-1],
	} {
		if _, err := decodeMemberCheckpoint(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("decode %s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if err := s.RestartMember(victim); err != nil {
		t.Fatalf("RestartMember: %v", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDetachAttachEdgeNode drains a whole leaf subtree out of the running
// tree and re-attaches it: pushes for its slots bounce with
// ErrNodeDetached in between, other slots keep flowing, and the final
// count invariant covers exactly the pushes that were admitted.
func TestDetachAttachEdgeNode(t *testing.T) {
	s, err := OpenLive(nil, elasticConfig(checkpoint.NewMemoryStore()))
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	push := func(slot, n int) error {
		ing, err := s.Ingester(slot)
		if err != nil {
			t.Fatalf("Ingester(%d): %v", slot, err)
		}
		items := make([]stream.Item, n)
		for k := range items {
			items[k] = stream.Item{Source: stream.SourceID(fmt.Sprintf("s%d", slot)), Value: 1 + float64(k)}
		}
		return ing.Push(items...)
	}
	for slot := 0; slot < s.plan.Spec.Sources; slot++ {
		if err := push(slot, 100); err != nil {
			t.Fatalf("warm push slot %d: %v", slot, err)
		}
	}
	// Testbed maps sources {0,1} onto edge1-0.
	if err := s.RemoveEdgeNode("edge1-0"); err != nil {
		t.Fatalf("RemoveEdgeNode: %v", err)
	}
	if err := push(0, 10); !errors.Is(err, ErrNodeDetached) {
		t.Fatalf("push to detached leaf: err = %v, want ErrNodeDetached", err)
	}
	if err := push(5, 100); err != nil {
		t.Fatalf("push to attached leaf while sibling detached: %v", err)
	}
	if err := s.AddEdgeNode("edge1-0"); err != nil {
		t.Fatalf("AddEdgeNode: %v", err)
	}
	if err := push(0, 100); err != nil {
		t.Fatalf("push after re-attach: %v", err)
	}
	members, err := s.GroupMembers("edge1-0")
	if err != nil {
		t.Fatalf("GroupMembers: %v", err)
	}
	live, retired := 0, 0
	for _, m := range members {
		if m.State == "live" {
			live++
		} else {
			retired++
		}
	}
	if live != 2 || retired != 2 {
		t.Fatalf("post-reattach membership live=%d retired=%d, want 2/2 (%v)", live, retired, members)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := int64(8*100 + 100 + 100); res.Produced != want {
		t.Fatalf("produced %d, want %d (rejected pushes must not count)", res.Produced, want)
	}
	assertCountInvariant(t, "detach/attach", res.EstimateCount, float64(res.Produced))
}

// TestElasticGuards sweeps the rejection surface: every malformed elastic
// request fails with its contract error and leaves the session running.
func TestElasticGuards(t *testing.T) {
	s, err := OpenLive(nil, elasticConfig(nil)) // no checkpoint store
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	defer s.Close()
	if _, err := s.AddMember("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("AddMember unknown: %v", err)
	}
	if _, err := s.AddMember("root-0"); !errors.Is(err, ErrNotEdgeNode) {
		t.Fatalf("AddMember root: %v", err)
	}
	if err := s.RemoveEdgeNode("edge2-0"); !errors.Is(err, ErrNotLeafNode) {
		t.Fatalf("RemoveEdgeNode interior: %v", err)
	}
	if err := s.AddEdgeNode("edge1-0"); !errors.Is(err, ErrNodeAttached) {
		t.Fatalf("AddEdgeNode attached: %v", err)
	}
	if err := s.KillMember("edge1-0-shard9"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("KillMember unknown: %v", err)
	}
	if err := s.RestartMember("edge1-0"); !errors.Is(err, ErrMemberAlive) {
		t.Fatalf("RestartMember live: %v", err)
	}
	// edge2-0 runs a single member (LayerShards only sizes layer 0).
	if _, err := s.RemoveMember("edge2-0"); !errors.Is(err, ErrLastMember) {
		t.Fatalf("RemoveMember last: %v", err)
	}
	// 4 partitions cap the group at 4 members: 2 seeded + 2 added.
	for i := 0; i < 2; i++ {
		if _, err := s.AddMember("edge1-0"); err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
	}
	if _, err := s.AddMember("edge1-0"); !errors.Is(err, ErrShardsExceedPartitions) {
		t.Fatalf("AddMember past partitions: %v", err)
	}
	if err := s.KillMember("edge1-0"); err != nil {
		t.Fatalf("KillMember: %v", err)
	}
	if err := s.KillMember("edge1-0"); !errors.Is(err, ErrMemberDead) {
		t.Fatalf("KillMember dead twice: %v", err)
	}
	if err := s.RestartMember("edge1-0"); !errors.Is(err, ErrNoCheckpointStore) {
		t.Fatalf("RestartMember without store: %v", err)
	}
}

// TestElasticRandomSequenceProperty is the property-based rescale test: a
// seeded random sequence of add/remove/kill/restart against random nodes,
// pushes interleaved throughout, every dead member restarted before close
// — and the count invariant must hold exactly, every trial.
func TestElasticRandomSequenceProperty(t *testing.T) {
	for trial := uint64(0); trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := xrand.New(100 + trial)
			s, err := OpenLive(nil, elasticConfig(checkpoint.NewMemoryStore()))
			if err != nil {
				t.Fatalf("OpenLive: %v", err)
			}
			nodes := []string{"edge1-0", "edge1-1", "edge1-2", "edge1-3"}
			var mu sync.Mutex
			dead := map[string]bool{}
			const rounds, perRound = 10, 30
			pushRounds(t, s, rounds, perRound, func(r int) {
				node := nodes[rng.Uint64()%uint64(len(nodes))]
				switch rng.Uint64() % 4 {
				case 0:
					if _, err := s.AddMember(node); err != nil && !errors.Is(err, ErrShardsExceedPartitions) {
						t.Errorf("AddMember(%s): %v", node, err)
					}
				case 1:
					if _, err := s.RemoveMember(node); err != nil && !errors.Is(err, ErrLastMember) {
						t.Errorf("RemoveMember(%s): %v", node, err)
					}
				case 2:
					members, err := s.GroupMembers(node)
					if err != nil {
						t.Errorf("GroupMembers(%s): %v", node, err)
						return
					}
					for _, m := range members {
						if m.State == "live" {
							if err := s.KillMember(m.ID); err != nil {
								t.Errorf("KillMember(%s): %v", m.ID, err)
							} else {
								mu.Lock()
								dead[m.ID] = true
								mu.Unlock()
							}
							break
						}
					}
				case 3:
					mu.Lock()
					for id := range dead {
						delete(dead, id)
						mu.Unlock()
						if err := s.RestartMember(id); err != nil {
							t.Errorf("RestartMember(%s): %v", id, err)
						}
						mu.Lock()
					}
					mu.Unlock()
				}
				time.Sleep(s.cfg.Window / 2)
			})
			// The invariant demands every crash eventually recovers: restart
			// whoever is still dead before closing.
			for id := range dead {
				if err := s.RestartMember(id); err != nil {
					t.Fatalf("final RestartMember(%s): %v", id, err)
				}
			}
			res, err := s.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			want := int64(rounds * perRound * s.plan.Spec.Sources)
			if res.Produced != want {
				t.Fatalf("produced %d, want %d", res.Produced, want)
			}
			assertCountInvariant(t, fmt.Sprintf("random sequence seed %d", trial),
				res.EstimateCount, float64(res.Produced))
		})
	}
}

// pushEventRound pushes perSlot event-stamped items into every slot, round
// r spanning [r*span, (r+1)*span) of event time from simEpoch. Detached
// leaves reject with ErrNodeDetached; those pushes are skipped (and not
// produced). Returns the number of items actually admitted.
func pushEventRound(t *testing.T, s *LiveSession, r, perSlot int) int64 {
	t.Helper()
	const span = 300 * time.Millisecond
	var pushed int64
	for slot := 0; slot < s.plan.Spec.Sources; slot++ {
		ing, err := s.Ingester(slot)
		if err != nil {
			t.Fatalf("Ingester(%d): %v", slot, err)
		}
		items := make([]stream.Item, perSlot)
		for k := range items {
			items[k] = stream.Item{
				Source: stream.SourceID(fmt.Sprintf("s%d", slot)),
				Value:  float64(slot + 1),
				Ts: simEpoch.Add(time.Duration(r)*span +
					time.Duration(k)*span/time.Duration(perSlot)),
			}
		}
		switch err := ing.Push(items...); {
		case err == nil:
			pushed += int64(perSlot)
		case errors.Is(err, ErrNodeDetached):
		default:
			t.Fatalf("Push(slot %d): %v", slot, err)
		}
	}
	return pushed
}

// TestEventTimeDetachDrains regression-tests the detach drain loop in
// event-time mode: buffered Ψ awaiting a window flush (pending) must NOT
// gate the loop — nothing flushes it once the topic is fenced, so waiting
// on it made every event-time detach spin to DrainTimeout and undo itself.
// retireMember's drainAll force-closes the buffer instead.
func TestEventTimeDetachDrains(t *testing.T) {
	cfg := elasticConfig(checkpoint.NewMemoryStore())
	cfg.EventTime = true
	cfg.AllowedLateness = 300 * time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	var produced int64
	for r := 0; r < 3; r++ {
		produced += pushEventRound(t, s, r, 20)
		time.Sleep(cfg.Window / 2)
	}
	start := time.Now()
	if err := s.RemoveEdgeNode("edge1-0"); err != nil {
		t.Fatalf("RemoveEdgeNode: %v", err)
	}
	if took := time.Since(start); took > cfg.DrainTimeout/2 {
		t.Fatalf("detach took %v — drained via timeout, not via the probe", took)
	}
	for r := 3; r < 5; r++ {
		produced += pushEventRound(t, s, r, 20)
		time.Sleep(cfg.Window / 2)
	}
	if err := s.AddEdgeNode("edge1-0"); err != nil {
		t.Fatalf("AddEdgeNode: %v", err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.Produced != produced {
		t.Fatalf("produced %d, want %d", res.Produced, produced)
	}
	assertCountInvariant(t, "event-time detach",
		res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
}

// TestEventTimeRescaleCloseUnwedged regression-tests the shutdown path
// after mid-run rebalances: growing a group reassigns partitions, so a
// member can be left buffering windows for sub-streams it no longer owns —
// with keyed EOS delivery it would hear nothing ever again and Close would
// spin to DrainTimeout. The per-partition EOS broadcast (and the allStale
// force-drain backstop) must close such members in-band.
func TestEventTimeRescaleCloseUnwedged(t *testing.T) {
	cfg := elasticConfig(checkpoint.NewMemoryStore())
	cfg.EventTime = true
	cfg.AllowedLateness = 300 * time.Millisecond
	cfg.DrainTimeout = 20 * time.Second
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	var produced int64
	for r := 0; r < 8; r++ {
		produced += pushEventRound(t, s, r, 20)
		if r == 4 {
			// Widen every leaf group mid-run: partitions rebalance, and
			// whichever member loses a sub-stream's partition is left
			// holding its buffered windows.
			for _, node := range []string{"edge1-0", "edge1-1", "edge1-2", "edge1-3"} {
				if _, err := s.AddMember(node); err != nil {
					t.Fatalf("AddMember(%s): %v", node, err)
				}
			}
		}
		time.Sleep(cfg.Window / 2)
	}
	start := time.Now()
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > cfg.DrainTimeout/2 {
		t.Fatalf("close took %v — quiesced via timeout, not in-band", took)
	}
	if res.Produced != produced {
		t.Fatalf("produced %d, want %d", res.Produced, produced)
	}
	assertCountInvariant(t, "event-time rescale close",
		res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
}
