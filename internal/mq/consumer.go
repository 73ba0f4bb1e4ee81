package mq

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// group coordinates the members of one consumer group on one topic: it
// tracks committed offsets per partition and deals partitions out to members
// round-robin, rebalancing whenever membership changes. Membership is
// guarded by mu; each committed offset has its own lock so members fetching
// disjoint partitions never contend.
type group struct {
	mu      sync.Mutex
	nextID  int
	members []string
	// epoch is the fencing generation: bumped on every join/leave, it lets
	// claim detect that an assignment snapshot predates a rebalance. watch
	// is closed and replaced on every membership change so consumers can
	// observe rebalances without polling.
	epoch int64
	watch chan struct{}

	committed []groupOffset
}

// groupOffset is one partition's committed position, individually locked so
// claim can make read-fetch-commit atomic per partition without serializing
// the whole group.
type groupOffset struct {
	mu  sync.Mutex
	off int64
	by  string // the member whose claim last advanced off
}

func newGroup(partitions int) *group {
	return &group{
		committed: make([]groupOffset, partitions),
		watch:     make(chan struct{}),
	}
}

func (g *group) join() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := fmt.Sprintf("member-%d", g.nextID)
	g.nextID++
	g.members = append(g.members, id)
	sort.Strings(g.members)
	g.bumpLocked()
	return id
}

func (g *group) leave(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == id {
			g.members = append(g.members[:i], g.members[i+1:]...)
			g.bumpLocked()
			return
		}
	}
}

// bumpLocked advances the fencing epoch and wakes rebalance watchers.
// Callers hold g.mu.
func (g *group) bumpLocked() {
	g.epoch++
	close(g.watch)
	g.watch = make(chan struct{})
}

// rebalanceCh returns a channel closed at the next membership change.
func (g *group) rebalanceCh() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.watch
}

func (g *group) currentEpoch() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// owns reports whether member id owns partition p under the current
// membership.
func (g *group) owns(id string, p int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == id {
			return p%len(g.members) == i
		}
	}
	return false
}

// assignment returns the partitions currently owned by member id:
// partition p belongs to the member at index p mod len(members).
func (g *group) assignment(id string, partitions int) []int {
	owned, _ := g.assignmentEpoch(id, partitions)
	return owned
}

// assignmentEpoch is assignment plus the fencing epoch the snapshot was
// computed at, so a claim can detect that a rebalance has invalidated it.
func (g *group) assignmentEpoch(id string, partitions int) ([]int, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := -1
	for i, m := range g.members {
		if m == id {
			idx = i
			break
		}
	}
	if idx < 0 || len(g.members) == 0 {
		return nil, g.epoch
	}
	var owned []int
	for p := 0; p < partitions; p++ {
		if p%len(g.members) == idx {
			owned = append(owned, p)
		}
	}
	return owned, g.epoch
}

func (g *group) committedOffset(p int) int64 {
	po := &g.committed[p]
	po.mu.Lock()
	defer po.mu.Unlock()
	return po.off
}

// commit advances the committed offset for partition p, never regressing.
func (g *group) commit(p int, offset int64) {
	po := &g.committed[p]
	po.mu.Lock()
	defer po.mu.Unlock()
	if offset > po.off {
		po.off = offset
	}
}

// claim atomically reads partition p's committed offset, fetches records
// through fetch (which appends onto dst and returns the extended slice), and
// commits past them — all under the partition's offset lock, so members on
// disjoint partitions proceed concurrently while fetch-and-commit on one
// partition is serialized.
//
// epoch is the fencing generation the claimant's assignment snapshot was
// computed at. When the group has rebalanced since (epoch moved on), the
// claimant's ownership of p is re-verified under the partition lock and a
// stale owner is fenced off with an empty result — without this check a
// member that snapshotted its assignment just before a membership change
// could fetch (and commit past) a batch that now belongs to another member.
// The per-partition offset lock already guaranteed at-most-once delivery;
// the fence closes the remaining wrong-owner window.
func (g *group) claim(id string, epoch int64, p int, dst []Record, fetch func(dst []Record, from int64) ([]Record, error)) ([]Record, error) {
	po := &g.committed[p]
	po.mu.Lock()
	defer po.mu.Unlock()
	if g.currentEpoch() != epoch && !g.owns(id, p) {
		return dst, nil
	}
	n0 := len(dst)
	dst, err := fetch(dst, po.off)
	if err != nil || len(dst) == n0 {
		return dst, err
	}
	if next := dst[len(dst)-1].Offset + 1; next > po.off {
		po.off, po.by = next, id
	}
	return dst, nil
}

// rewind moves partition p's committed offset from end back to from on
// behalf of member id — only while it still stands at end and id's claim
// put it there, so no other member has fetched past it.
func (g *group) rewind(id string, p int, from, end int64) bool {
	po := &g.committed[p]
	po.mu.Lock()
	defer po.mu.Unlock()
	if po.off != end || po.by != id || from > end {
		return false
	}
	po.off = from
	return true
}

// Consumer reads records from one topic, either as a member of a consumer
// group (partitions split among members, offsets committed group-wide) or
// standalone (all partitions, private positions).
type Consumer struct {
	topic *Topic
	grp   *group
	id    string

	// holds is what the consumer keeps readable, one per partition, each
	// guarded by its partition's mu; gen numbers the polls, so a new poll
	// lets go of everything the last one lent at once.
	holds []hold
	gen   atomic.Int64

	mu        sync.Mutex
	positions map[int]int64 // standalone mode read positions
	rrStart   int           // fairness rotation across partitions
	closed    bool

	// owned is the assignment pollOnce reads under: every partition for a
	// standalone consumer; for a group member the snapshot taken at fencing
	// epoch ownedEpoch, recomputed only once the group's epoch has moved on
	// (the assignment is a pure function of the membership, and membership
	// changes only with an epoch bump). The slice is replaced, never
	// mutated, so a concurrent poll holding the old one stays valid.
	owned      []int
	ownedEpoch int64 // 0: no snapshot yet (a joined group's epoch is ≥ 1)

	w waiter // WaitChan's registration with the topic
}

// NewConsumer returns a standalone consumer over every partition of topic,
// starting at the current low watermarks.
func NewConsumer(b *Broker, topic string) (*Consumer, error) {
	t, err := b.Topic(topic)
	if err != nil {
		return nil, err
	}
	c := &Consumer{topic: t, positions: make(map[int]int64, t.Partitions())}
	for p := 0; p < t.Partitions(); p++ {
		c.positions[p] = t.LowWatermark(p)
		c.owned = append(c.owned, p)
	}
	t.register(c)
	return c, nil
}

// NewGroupConsumer returns a consumer that joins the named group on topic.
// Partitions are rebalanced across the group's live members.
func NewGroupConsumer(b *Broker, topic, groupName string) (*Consumer, error) {
	t, err := b.Topic(topic)
	if err != nil {
		return nil, err
	}
	g := t.group(groupName)
	c := &Consumer{topic: t, grp: g, id: g.join()}
	t.register(c)
	t.wake() // the rebalance is news to parked members (see WaitChan)
	return c, nil
}

// hold is what one consumer keeps readable in one partition: the first
// record its last poll lent there, and an offset it holds from (Hold).
// Guarded by the partition's mu.
type hold struct {
	lent    int64
	lentGen int64 // the number of the poll that lent it; 0: none yet
	pinned  int64 // -1: none
}

// from returns the lowest offset h keeps readable, math.MaxInt64 for none,
// where gen is the consumer's current poll.
func (h *hold) from(gen int64) int64 {
	off := int64(math.MaxInt64)
	if h.lentGen == gen && h.lentGen != 0 {
		off = h.lent
	}
	if h.pinned >= 0 {
		off = min(off, h.pinned)
	}
	return off
}

// register files c with its topic: from now on what it has not read, and
// what it has lent or holds, stays readable.
func (t *Topic) register(c *Consumer) {
	c.holds = make([]hold, len(t.parts))
	for i := range c.holds {
		c.holds[i].pinned = -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.consumers = append(t.consumers, c)
}

// unregister forgets a closed consumer. Its holds are left as they are: a
// compaction that listed it before it closed still reads them, so what it
// handed back (Rewind) before closing — now behind the group's committed
// offset — is held either way.
func (t *Topic) unregister(c *Consumer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := slices.Index(t.consumers, c); i >= 0 {
		t.consumers = slices.Delete(t.consumers, i, i+1)
	}
}

// Assignment returns the partitions this consumer currently owns.
func (c *Consumer) Assignment() []int {
	if c.grp == nil {
		return append([]int(nil), c.owned...)
	}
	return c.grp.assignment(c.id, c.topic.Partitions())
}

// PollInto appends up to max records onto dst (pass dst[:0] to recycle it
// across polls) and returns the extended slice, blocking until at least one
// record is available, ctx is cancelled, or the topic closes. Group consumers
// read from and advance the group's committed offsets (auto-commit);
// standalone consumers advance private positions. A steady-state poll loop
// allocates nothing per poll. The records' Key/Value bytes are lent: views
// of the partition's segments, read-only, and valid until this consumer's
// next PollInto or TryPollInto — the partition holds them until then, and
// may reuse them after.
func (c *Consumer) PollInto(ctx context.Context, dst []Record, max int) ([]Record, error) {
	if max <= 0 {
		max = 1
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return dst, ErrClosed
		}
		c.mu.Unlock()

		wait := c.WaitChan() // arm before reading to avoid lost wakeups
		out, err := c.pollOnce(dst, max)
		if err != nil {
			return dst, err
		}
		if len(out) > len(dst) {
			return out, nil
		}
		if c.topic.isClosed() {
			return dst, ErrClosed
		}
		select {
		case <-ctx.Done():
			return dst, ctx.Err()
		case <-wait:
		}
	}
}

// TryPollInto is a non-blocking PollInto (same lending rule); it returns dst
// unextended when no records are ready.
func (c *Consumer) TryPollInto(dst []Record, max int) ([]Record, error) {
	if max <= 0 {
		max = 1
	}
	return c.pollOnce(dst, max)
}

// WaitChan arms the consumer's wake channel and returns it: it receives at
// the next append to a partition this consumer owns or the group's next
// membership change (a closed channel if the topic is shut down). The
// channel is the consumer's own and is reused, so take one receive per arm.
// Arm it *before* a TryPollInto, then block on it only if the poll came back
// empty — the arm-before-read order makes a wakeup between the poll and the
// wait impossible to lose, and the rebalance wakeup means a member that a
// leaving member's backlog passes to finds it without waiting for an append.
// After a wakeup with no records, check TopicClosed: a shut-down topic wakes
// immediately and forever.
func (c *Consumer) WaitChan() <-chan struct{} {
	owned, epoch := c.assignmentNow()
	return c.topic.arm(&c.w, owned, c.grp, epoch)
}

// TopicClosed reports whether the consumer's topic has been shut down.
// Retained records can still be fetched, but no new records will arrive.
func (c *Consumer) TopicClosed() bool {
	return c.topic.isClosed()
}

// pollOnce appends up to max ready records onto dst and returns the extended
// slice (dst unextended when nothing is ready). The append-into shape keeps
// the hot poll path allocation-free once dst's capacity has warmed up.
func (c *Consumer) pollOnce(dst []Record, max int) ([]Record, error) {
	gen := c.gen.Add(1) // what the last poll lent expires here
	owned, epoch := c.assignmentNow()
	if len(owned) == 0 {
		return dst, nil
	}
	c.mu.Lock()
	start := c.rrStart % len(owned)
	c.rrStart++
	c.mu.Unlock()

	out := dst
	base := len(dst)
	for i := 0; i < len(owned) && len(out)-base < max; i++ {
		p := owned[(start+i)%len(owned)]
		budget := max - (len(out) - base)
		if c.grp != nil {
			// Group mode: fetch-and-commit atomically, fenced by the
			// epoch the assignment was snapshotted at, so concurrent
			// members — including stale owners mid-rebalance — never
			// deliver the same record twice nor fetch a partition that
			// has moved to another member.
			got, err := c.grp.claim(c.id, epoch, p, out, func(dst []Record, from int64) ([]Record, error) {
				got, err := c.lend(dst, p, from, budget, gen)
				if err == ErrOutOfRange {
					// The log was compacted past the committed offset;
					// skip forward to the oldest retained record.
					return c.lend(dst, p, c.topic.LowWatermark(p), budget, gen)
				}
				return got, err
			})
			if err != nil {
				return dst, err
			}
			out = got
			continue
		}
		from := c.position(p)
		got, err := c.lend(out, p, from, budget, gen)
		if err == ErrOutOfRange {
			// The log was compacted past our position; skip forward.
			c.setPosition(p, c.topic.LowWatermark(p))
			continue
		}
		if err != nil {
			return dst, err
		}
		if len(got) == len(out) {
			continue
		}
		c.setPosition(p, got[len(got)-1].Offset+1)
		out = got
	}
	return out, nil
}

// lend is poll number gen's fetch from partition p: views of the stored
// bytes, held until the consumer's next poll.
func (c *Consumer) lend(dst []Record, p int, from int64, max int, gen int64) ([]Record, error) {
	return c.topic.parts[p].fetchInto(dst, from, max, &c.holds[p], gen)
}

// Hold keeps partition p's records from offset from on readable past this
// consumer's next poll, until the next Hold of p or until the consumer
// closes; a negative from lets them go. A daemon that pushes polled records
// to a remote client holds what the client may still hand back (Rewind).
func (c *Consumer) Hold(p int, from int64) {
	part := c.topic.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	c.holds[p].pinned = from
}

// assignmentNow returns the owned snapshot and the fencing epoch it was taken
// at, refreshed first if the group's epoch has moved on.
func (c *Consumer) assignmentNow() ([]int, int64) {
	var cur int64 // the group's fencing epoch now; 0 standalone
	if c.grp != nil {
		cur = c.grp.currentEpoch()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur != c.ownedEpoch {
		c.owned, c.ownedEpoch = c.grp.assignmentEpoch(c.id, c.topic.Partitions())
	}
	return c.owned, c.ownedEpoch
}

func (c *Consumer) position(p int) int64 {
	if c.grp != nil {
		return c.grp.committedOffset(p)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.positions[p]
}

func (c *Consumer) setPosition(p int, offset int64) {
	if c.grp != nil {
		c.grp.commit(p, offset)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.positions[p] = offset
}

// Generation returns the consumer group's current fencing epoch: it
// advances on every membership change (join or leave), so two reads
// bracketing an operation detect whether a rebalance happened in between.
// Standalone consumers always report 0.
func (c *Consumer) Generation() int64 {
	if c.grp == nil {
		return 0
	}
	return c.grp.currentEpoch()
}

// RebalanceChan returns a channel closed at the group's next membership
// change (then replaced — re-arm by calling again). It lets a member react
// to rebalances without polling Assignment. Standalone consumers, which
// never rebalance, get a channel that never closes.
func (c *Consumer) RebalanceChan() <-chan struct{} {
	if c.grp == nil {
		return make(chan struct{})
	}
	return c.grp.rebalanceCh()
}

// Committed returns this consumer's read position for partition p: the
// group's committed offset in group mode, the private position standalone.
func (c *Consumer) Committed(p int) int64 {
	return c.position(p)
}

// Rewind hands back records a group member claimed but never processed:
// partition p's committed offset moves from end, where the member's last
// claim left it, back to from, so the partition's next owner fetches
// [from, end) again. It happens only while nobody has claimed past end —
// the offset still stands at end and this member's claim put it there —
// so a record is never handed to two members. It reports whether it
// rewound; a standalone consumer never does.
func (c *Consumer) Rewind(p int, from, end int64) bool {
	return c.grp != nil && c.grp.rewind(c.id, p, from, end)
}

// Seek moves a standalone consumer's position for partition p. It returns
// ErrNotSubscribed for group consumers, whose offsets are group-owned.
func (c *Consumer) Seek(p int, offset int64) error {
	if c.grp != nil {
		return ErrNotSubscribed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.positions[p] = offset
	return nil
}

// Lag returns the total number of records between this consumer's positions
// and the high watermarks of its owned partitions.
func (c *Consumer) Lag() int64 {
	var lag int64
	for _, p := range c.Assignment() {
		d := c.topic.HighWatermark(p) - c.position(p)
		if d > 0 {
			lag += d
		}
	}
	return lag
}

// Close releases the consumer, and with it everything it held; group
// members leave the group, triggering a rebalance for the remaining members.
func (c *Consumer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.topic.unregister(c)
	if c.grp != nil {
		c.grp.leave(c.id)
		c.topic.wake()
	}
}
