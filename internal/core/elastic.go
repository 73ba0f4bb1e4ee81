package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/approxiot/approxiot/internal/checkpoint"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
)

// This file is the elastic-topology layer of the session engine: a running
// deployment grows, shrinks, and survives member crashes without restarting.
// Every verb acts on the groups the tier it is called on hosts — all of them
// in process, one tier's in a process-per-tier deployment — so each process
// resizes, kills and restarts its own members, against its own checkpoint
// store, and replays from the shared broker (transport.Bus.FetchInto).
//
//   - AddMember / RemoveMember resize one node's consumer group mid-run: the
//     broker rebalances the input topic's partitions across the new
//     membership, and — for FixedBudget deployments — the groupBudget
//     re-splits the node's total sample cap across the live members at their
//     next window boundary. Eq. 8 weight compounding is what makes this
//     coordination-free: each member's forwarded estimates stay exact at any
//     member count, so no merge barrier needs renegotiating.
//   - KillMember / RestartMember model a crash-recovery cycle: a kill
//     freezes the member dead (its group notices only at the rebalance) and
//     records the broker-committed offsets as the recovery horizon; a
//     restart rebuilds the member, restores its last checkpoint, replays the
//     committed-past-checkpoint gap from the broker's retained log, and
//     rejoins the group — without double-counting, losing items, or
//     regressing the watermark.
//   - AddEdgeNode / RemoveEdgeNode attach and drain a whole layer-0 subtree:
//     a detach stops admitting pushes, waits for the node's topic to drain,
//     flushes every member's buffered state downstream, and retires the
//     group; an attach rebuilds it with fresh member identities.
//
// Every membership change ends in postChange: the surviving members flush
// (checkpointing their state against their post-rebalance partition
// assignment) and the group's committed input offsets are snapshotted as the
// fallback replay origin for state no checkpoint covers.

// Elastic-topology errors.
var (
	// ErrUnknownNode rejects an operation naming a node ID the plan did not
	// compile, or one another tier hosts.
	ErrUnknownNode = errors.New("core: unknown node")
	// ErrUnknownMember rejects an operation naming a member ID no group
	// holds (including members retired by RemoveMember/RemoveEdgeNode).
	ErrUnknownMember = errors.New("core: unknown member")
	// ErrNotEdgeNode rejects elastic operations on the root: the root group
	// merges at window close and is sized for the session's lifetime.
	ErrNotEdgeNode = errors.New("core: node is not an edge node (the root group is not elastic)")
	// ErrNotLeafNode rejects detach/attach above layer 0: an interior node's
	// input topic is fed by live children, so draining it "for good" would
	// wedge them.
	ErrNotLeafNode = errors.New("core: only layer-0 edge nodes can be detached or attached")
	// ErrLastMember rejects removing a group's only live member — a node
	// with zero members would strand its topic; detach the whole node
	// instead (RemoveEdgeNode).
	ErrLastMember = errors.New("core: cannot remove a group's last live member")
	// ErrNodeDetached rejects operations (including ingestion) on a node
	// detached by RemoveEdgeNode.
	ErrNodeDetached = errors.New("core: edge node is detached")
	// ErrNodeAttached rejects AddEdgeNode on a node that is already
	// attached.
	ErrNodeAttached = errors.New("core: edge node is already attached")
	// ErrMemberDead rejects kill/remove of a member that is not live.
	ErrMemberDead = errors.New("core: member is not running")
	// ErrMemberAlive rejects RestartMember of a member that was never
	// killed.
	ErrMemberAlive = errors.New("core: member is not killed")
	// ErrNoCheckpointStore rejects RestartMember on a session opened without
	// LiveConfig.Checkpoint: with no saved state and no recovery horizon,
	// a "restarted" member would be a silent data loss.
	ErrNoCheckpointStore = errors.New("core: RestartMember requires LiveConfig.Checkpoint")
)

// groupBudget re-splits one node's absolute FixedBudget cap across the
// group's live members, dynamically: total/n each, the remainder to the
// earliest joiners. Members join in shard order at open — which makes
// the initial shares bit-identical to the static NewNodeShardCost split —
// and rejoin at restart/add. SampleSize is consulted only at a member's
// window close, so a re-split takes effect exactly at window boundaries,
// never mid-interval, and the live shares always sum to the configured
// total (or to 0 when no member is live).
type groupBudget struct {
	mu    sync.Mutex
	total int
	order []string // live member IDs in join order
}

func newGroupBudget(total int) *groupBudget {
	return &groupBudget{total: total}
}

// join registers a member and returns its cost function. Idempotent per ID.
func (b *groupBudget) join(id string) *memberBudget {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, o := range b.order {
		if o == id {
			return &memberBudget{b: b, id: id}
		}
	}
	b.order = append(b.order, id)
	return &memberBudget{b: b, id: id}
}

// leave removes a member from the split; unknown IDs are a no-op.
func (b *groupBudget) leave(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, o := range b.order {
		if o == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			return
		}
	}
}

// share returns the member's current slice of the total: total/n, plus one
// for the first total%n joiners. A member that has left samples nothing.
func (b *groupBudget) share(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.order)
	for i, o := range b.order {
		if o == id {
			s := b.total / n
			if i < b.total%n {
				s++
			}
			return s
		}
	}
	return 0
}

// shares returns every live member's current slice, keyed by ID (tests and
// introspection).
func (b *groupBudget) shares() map[string]int {
	b.mu.Lock()
	order := append([]string(nil), b.order...)
	b.mu.Unlock()
	out := make(map[string]int, len(order))
	for _, id := range order {
		out[id] = b.share(id)
	}
	return out
}

// memberBudget is one member's view of its group's budget split.
type memberBudget struct {
	b  *groupBudget
	id string
}

var _ CostFunction = (*memberBudget)(nil)

// SampleSize implements CostFunction with the member's current share.
func (m *memberBudget) SampleSize(int) int { return m.b.share(m.id) }

// MemberState describes one consumer-group member for introspection.
type MemberState struct {
	// ID is the member's identity — telemetry key, watermark chain origin,
	// and checkpoint key.
	ID string
	// Shard is the member's shard index (fixes its seed lineage).
	Shard int
	// State is "live", "killed" (restartable), or "removed" (retired).
	State string
}

// EdgeNodeIDs lists the IDs of the edge nodes this tier hosts, bottom-up in
// (layer, node) order — the handles AddMember / RemoveEdgeNode and friends
// accept.
func (e *engine) EdgeNodeIDs() []string {
	var out []string
	for _, g := range e.groups {
		if !g.desc.IsRoot {
			out = append(out, g.desc.ID)
		}
	}
	return out
}

// GroupMembers reports the membership of one node's consumer group,
// retired and killed members included, in join order.
func (e *engine) GroupMembers(nodeID string) ([]MemberState, error) {
	g, ok := e.groupByID[nodeID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, nodeID)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]MemberState, 0, len(g.members))
	for _, m := range g.members {
		st := "live"
		switch {
		case m.removed:
			st = "removed"
		case m.dead:
			st = "killed"
		}
		out = append(out, MemberState{ID: m.id, Shard: m.shard, State: st})
	}
	return out, nil
}

// edgeGroup resolves a node ID to its (non-root, attached-or-not) group on
// this tier.
func (e *engine) edgeGroup(nodeID string) (*shardGroup, error) {
	g, ok := e.groupByID[nodeID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, nodeID)
	}
	if g.desc.IsRoot {
		return nil, ErrNotEdgeNode
	}
	return g, nil
}

// findMember locates a member by ID across the edge groups.
func (e *engine) findMember(id string) (*shardGroup, *groupMember) {
	for _, g := range e.groups {
		if g.desc.IsRoot {
			continue
		}
		g.mu.Lock()
		for _, m := range g.members {
			if m.id == id {
				g.mu.Unlock()
				return g, m
			}
		}
		g.mu.Unlock()
	}
	return nil, nil
}

// AddMember grows nodeID's consumer group by one mid-run: a fresh member —
// new shard index, new salted seed lineage, new identity — is built with
// exactly the wiring the session opened with, started (the broker
// rebalances the input topic's partitions across the enlarged group), and
// the membership barrier flushes the group so FixedBudget re-splits land at
// the next window boundary. Returns the new member's ID. The group cannot grow past
// the topic's partition count (the surplus member would own nothing).
func (e *engine) AddMember(nodeID string) (string, error) {
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return "", err
	}
	g, err := e.edgeGroup(nodeID)
	if err != nil {
		return "", err
	}
	if g.isDetached() {
		return "", fmt.Errorf("%w: %q", ErrNodeDetached, nodeID)
	}
	if g.liveCount() >= e.plan.Partitions {
		return "", fmt.Errorf("%w: %q already has %d members over %d partitions",
			ErrShardsExceedPartitions, nodeID, g.liveCount(), e.plan.Partitions)
	}
	g.mu.Lock()
	shard := g.nextShard
	g.nextShard++
	g.mu.Unlock()
	m, err := g.build(shard)
	if err != nil {
		if g.budget != nil {
			g.budget.leave(memberID(g.desc, shard))
		}
		return "", err
	}
	if err := m.rt.Start(); err != nil {
		if g.budget != nil {
			g.budget.leave(m.id)
		}
		_ = m.rt.Stop()
		return "", err
	}
	g.mu.Lock()
	g.members = append(g.members, m)
	g.mu.Unlock()
	return m.id, e.postChange(g)
}

// RemoveMember gracefully shrinks nodeID's consumer group by one: the
// newest live member is frozen, everything it still buffers is flushed
// downstream (its windows close at end-of-stream with honest per-window
// watermark stamps and the member signs its chains off), and the member
// leaves the group — its partitions rebalance to the survivors, who resume
// at its committed offsets. Nothing is lost and nothing needs replaying.
// Returns the removed member's ID; a group keeps at least one live member
// (ErrLastMember — detach the whole node instead).
func (e *engine) RemoveMember(nodeID string) (string, error) {
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return "", err
	}
	g, err := e.edgeGroup(nodeID)
	if err != nil {
		return "", err
	}
	if g.isDetached() {
		return "", fmt.Errorf("%w: %q", ErrNodeDetached, nodeID)
	}
	live := g.live()
	if len(live) <= 1 {
		return "", fmt.Errorf("%w: %q", ErrLastMember, nodeID)
	}
	m := live[len(live)-1]
	e.retireMember(g, m)
	return m.id, e.postChange(g)
}

// retireMember runs the graceful-exit protocol on one member: mark retired
// (probes skip it), freeze the pump, flush all buffered state downstream,
// leave the group (rebalance), leave the budget split, and drop the
// member's checkpoint — its identity is never reused. Callers hold elMu.
func (e *engine) retireMember(g *shardGroup, m *groupMember) {
	g.mu.Lock()
	m.removed = true
	g.mu.Unlock()
	m.rt.Freeze()
	if m.proc != nil {
		m.proc.drainAll(time.Now())
	}
	_ = m.rt.Stop()
	if g.budget != nil {
		g.budget.leave(m.id)
	}
	if e.cfg.Checkpoint != nil {
		_ = e.cfg.Checkpoint.Delete(m.id)
	}
}

// KillMember crashes a live member: the pump freezes dead mid-flight —
// buffered Ψ, open windows, and unforwarded state die with it, exactly as
// "kill -9" would take them — and the broker-committed offsets at the kill
// instant are recorded as the recovery horizon before the member leaves its
// group (the rebalance hands its partitions to the survivors, who resume at
// those offsets — gap records stay the dead member's exclusively). Without
// a checkpoint store the kill still works — crashes don't ask permission —
// but the dead state is unrecoverable and the deployment's window counts
// stay short by whatever the victim held.
func (e *engine) KillMember(id string) error {
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return err
	}
	g, m := e.findMember(id)
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	if !m.live() {
		return fmt.Errorf("%w: %q", ErrMemberDead, id)
	}
	g.mu.Lock()
	m.dead = true
	g.mu.Unlock()
	m.rt.Freeze()
	// The recovery horizon must be what the BROKER remembers about the dead
	// member — its committed offsets — not anything read out of the corpse:
	// a real crash leaves no corpse to read.
	m.killedOffsets = m.rt.SourceCommitted()
	m.killedChangeOffs = g.changeOffsetsSnapshot()
	_ = m.rt.Stop()
	if g.budget != nil {
		g.budget.leave(m.id)
	}
	return e.postChange(g)
}

// RestartMember resurrects a killed member: a fresh member is rebuilt for
// the same shard (same ID, same seed lineage), its last checkpoint is
// loaded and verified — a corrupt blob fails the restart with the member
// still restartable — and recovery runs inside the new runtime's Init,
// after its consumer joins the group but before the pump starts: restore
// the checkpointed reservoir, watermark chains, and counters, then replay
// the records the dead member committed past its last checkpoint from the
// broker's retained log. Replay re-ingests without forwarding and without
// re-counting side effects the dead member already charged (late drops,
// decode errors): the restored close bound equals the bound at death —
// checkpoints are taken at every cut where output was forwarded — so
// replay classifies every gap record exactly as the dead member did, and
// the member resumes bit-honest: no double counts, no losses, watermark
// monotone.
func (e *engine) RestartMember(id string) error {
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return err
	}
	g, m := e.findMember(id)
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	if m.removed {
		return fmt.Errorf("%w: %q was removed", ErrUnknownMember, id)
	}
	if !m.dead {
		return fmt.Errorf("%w: %q", ErrMemberAlive, id)
	}
	if e.cfg.Checkpoint == nil {
		return ErrNoCheckpointStore
	}
	// Load and fully decode the checkpoint BEFORE anything joins the group:
	// a corrupt blob must fail fast, leaving the dead member restartable
	// (against a repaired store) and the group untouched.
	var ck *memberCkpt
	raw, err := e.cfg.Checkpoint.Load(id)
	switch {
	case err == nil:
		if ck, err = decodeMemberCheckpoint(raw); err != nil {
			return fmt.Errorf("core: restart %q: %w", id, err)
		}
	case errors.Is(err, checkpoint.ErrNotFound):
		ck = nil // fresh state; replay from the last membership barrier
	default:
		return fmt.Errorf("core: restart %q: %w", id, err)
	}
	killed := m.killedOffsets
	changeOffs := m.killedChangeOffs
	nm, err := g.build(m.shard)
	if err != nil {
		if g.budget != nil {
			g.budget.leave(id)
		}
		return err
	}
	nm.proc.recover = func(p *samplingProcessor, _ streams.ProcessorContext) error {
		if ck != nil {
			p.restoreCheckpoint(ck, time.Now())
		}
		return e.replayGap(p, g.desc, ck, killed, changeOffs)
	}
	if err := nm.rt.Start(); err != nil {
		// Init (and with it recovery) failed: the dead member stays dead
		// and restartable.
		if g.budget != nil {
			g.budget.leave(id)
		}
		_ = nm.rt.Stop()
		return err
	}
	g.mu.Lock()
	for i, cur := range g.members {
		if cur == m {
			g.members[i] = nm // same ID: telemetry continuity via the restore
			break
		}
	}
	g.mu.Unlock()
	return e.postChange(g)
}

// replayGap re-ingests the records a dead member committed past after its
// last checkpoint: [checkpoint offset, kill offset) per partition it owned
// at death, with the group's last membership-barrier offsets standing in
// for partitions the checkpoint does not cover (no checkpoint at all, or a
// save failure between barriers). The gap is the dead member's exclusively
// — survivors resumed at the kill offsets — so replaying it exactly once
// restores the state lost between the checkpoint and the crash. Nothing is
// forwarded and no side effect the dead member already charged to session
// counters (late drops, decode errors) is re-counted; the first regular
// cycle after the restart advances and forwards from the rebuilt state.
func (e *engine) replayGap(p *samplingProcessor, desc NodeDesc, ck *memberCkpt, killed []streams.PartitionOffset, changeOffs []int64) error {
	defer func() { p.pending.Store(int64(p.ew.buffered())) }()
	if len(killed) == 0 {
		return nil
	}
	ckptOffs := make(map[int]int64, len(killed))
	if ck != nil {
		for _, po := range ck.offsets {
			ckptOffs[po.Partition] = po.Offset
		}
	}
	// Replay lates were already counted by the dead member — the restored
	// bound equals the bound at death, so replay classifies identically —
	// and must not be double-charged to the session.
	var throwaway lateCounter
	orig := p.ew.late
	p.ew.late = &throwaway
	defer func() { p.ew.late = orig }()
	now := time.Now()
	var buf []mq.Record
	var err error
	for _, po := range killed {
		start := int64(0)
		if po.Partition < len(changeOffs) {
			start = changeOffs[po.Partition]
		}
		if o, ok := ckptOffs[po.Partition]; ok {
			start = o
		}
		for off := start; off < po.Offset; {
			buf, err = e.bus.FetchInto(buf[:0], desc.Topic, po.Partition, off, 256)
			if err != nil {
				// ErrOutOfRange here means the broker compacted the gap away
				// — the retained log no longer reaches back to the
				// checkpoint. Recovery cannot be honest; fail the restart.
				return fmt.Errorf("core: replay %s partition %d offset %d: %w", desc.ID, po.Partition, off, err)
			}
			if len(buf) == 0 {
				break // defensive: below the high watermark this cannot happen
			}
			for i := range buf {
				rec := &buf[i]
				if rec.Offset >= po.Offset {
					// Records past the kill horizon belong to the survivors.
					off = po.Offset
					break
				}
				off = rec.Offset + 1
				h, herr := stream.ParseHeader(rec.Value, p.ew.strata)
				if herr != nil {
					continue // already counted into DecodeErrors by the dead member
				}
				p.ew.ingestWire(h)
				// Fold the piggybacked watermark lanewise — the same per-lane
				// floor rule the live path applies, so replayed end-of-stream
				// copies lift exactly the lanes they rode — but never announce
				// (the dead member announced this chain when it first heard
				// it) and never advance (replay rebuilds buffered state only).
				p.wt.foldSlot(rec.Watermark, h.Slot, rec.Partition, now)
			}
		}
	}
	return nil
}

// RemoveEdgeNode detaches a whole layer-0 node from the running tree: the
// session stops admitting pushes for its source slots (ErrNodeDetached),
// waits for the node's input topic to drain (bounded by DrainTimeout), then
// retires every member — freeze, flush all buffered state downstream (the
// members close their windows at end-of-stream and sign their watermark
// chains off, so the parent's minimum releases in-band instead of waiting
// out the idle timeout), stop. The node's topology slot
// survives: AddEdgeNode rebuilds the group later. Only layer-0 nodes
// detach — an interior node's topic is fed by live children — and only on a
// tier that also runs the valves feeding them (errNoIngest otherwise).
func (e *engine) RemoveEdgeNode(nodeID string) error {
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return err
	}
	if !e.tier.Ingest {
		return errNoIngest
	}
	g, err := e.edgeGroup(nodeID)
	if err != nil {
		return err
	}
	if g.desc.Layer != 0 {
		return fmt.Errorf("%w: %q is layer %d", ErrNotLeafNode, nodeID, g.desc.Layer)
	}
	if g.isDetached() {
		return fmt.Errorf("%w: %q", ErrNodeDetached, nodeID)
	}
	// 1. Stop admitting: set the flag, then fence the node's valves — Push
	// reads the flag under its valve's mutex, so after this line no new
	// record can land in the node's topic.
	g.mu.Lock()
	g.detached = true
	g.mu.Unlock()
	e.fence(g)
	// 2. Wait for the members to consume what was already admitted: records
	// stranded in the topic after the members stop would break the
	// invariant (pushed and counted, never processed).
	if err := e.settle(e.ctx, func() bool { return g.lag() == 0 && !g.busy() }); err != nil {
		g.mu.Lock()
		g.detached = false
		g.mu.Unlock()
		if !errors.Is(err, ErrDrainTimeout) {
			err = ErrSessionClosed
		}
		return err
	}
	// Wait for pending == 0 too? No: pending is buffered Ψ awaiting a
	// window flush, and nothing flushes it until the watermark moves — which
	// it never will again, the topic being fenced. retireMember's drainAll
	// flushes it downstream explicitly instead.
	// 3. Retire every member.
	live := g.live()
	for _, m := range live {
		e.retireMember(g, m)
	}
	g.mu.Lock()
	g.detachedCount = len(live)
	g.mu.Unlock()
	return nil
}

// AddEdgeNode re-attaches a node detached by RemoveEdgeNode: the group is
// rebuilt at its pre-detach size with entirely fresh members — continuing
// shard indices, so new identities and new salted seed lineages — started,
// and the membership barrier re-baselines the group's offsets. Pushes for
// the node's source slots are admitted again from the moment it returns
// (ingest tiers only, as for RemoveEdgeNode).
func (e *engine) AddEdgeNode(nodeID string) error {
	e.elMu.Lock()
	defer e.elMu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return err
	}
	if !e.tier.Ingest {
		return errNoIngest
	}
	g, err := e.edgeGroup(nodeID)
	if err != nil {
		return err
	}
	if g.desc.Layer != 0 {
		return fmt.Errorf("%w: %q is layer %d", ErrNotLeafNode, nodeID, g.desc.Layer)
	}
	if !g.isDetached() {
		return fmt.Errorf("%w: %q", ErrNodeAttached, nodeID)
	}
	g.mu.Lock()
	count := g.detachedCount
	g.mu.Unlock()
	if count <= 0 {
		count = 1
	}
	added := make([]*groupMember, 0, count)
	abort := func(cause error) error {
		for i := len(added) - 1; i >= 0; i-- {
			_ = added[i].rt.Stop()
			if g.budget != nil {
				g.budget.leave(added[i].id)
			}
		}
		return cause
	}
	for i := 0; i < count; i++ {
		g.mu.Lock()
		shard := g.nextShard
		g.nextShard++
		g.mu.Unlock()
		m, err := g.build(shard)
		if err != nil {
			if g.budget != nil {
				g.budget.leave(memberID(g.desc, shard))
			}
			return abort(err)
		}
		added = append(added, m)
	}
	for _, m := range added {
		if err := m.rt.Start(); err != nil {
			return abort(err)
		}
	}
	g.mu.Lock()
	g.members = append(g.members, added...)
	g.detached = false
	g.mu.Unlock()
	return e.postChange(g)
}

// postChange is the membership barrier every elastic operation ends with:
// each surviving member flushes on its own pump goroutine — forwarding due
// windows and saving a checkpoint that covers its post-rebalance partition
// assignment — and the group's committed input offsets are then snapshotted
// as the fallback replay origin for any state a later crash's checkpoint
// does not cover. A member that stops between the mutation and the barrier
// (concurrent shutdown) is skipped: the barrier is best-effort on a dying
// session, whose final result no longer depends on it. A change to a leaf
// group also makes the next push on its topic probe the group's lag afresh.
func (e *engine) postChange(g *shardGroup) error {
	if g.desc.Layer == 0 {
		e.forceProbe(g.desc.Topic)
	}
	for _, m := range g.live() {
		if m.proc == nil {
			continue
		}
		proc := m.proc
		_ = m.rt.Sync(func() { proc.Punctuate(time.Now()) })
	}
	offs, err := e.bus.GroupCommitted(g.desc.Topic, g.desc.ID+"-in")
	if err != nil {
		return nil // topic or group gone: session shutting down
	}
	g.mu.Lock()
	g.changeOffsets = offs
	g.mu.Unlock()
	return nil
}
