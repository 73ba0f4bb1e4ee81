package mq

import "testing"

// seedBothPartitions sends keyed records until both partitions of a 2-way
// topic hold at least two, returning the total sent.
func seedBothPartitions(t *testing.T, b *Broker, topic string) int {
	t.Helper()
	p := NewProducer(b)
	sent := 0
	var hw [2]int64
	for i := 0; i < 256 && (hw[0] < 2 || hw[1] < 2); i++ {
		key := []byte{byte(i)}
		part, err := send(p, topic, key, []byte("v"))
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		hw[part]++
		sent++
	}
	if hw[0] < 2 || hw[1] < 2 {
		t.Fatalf("could not seed both partitions: hw = %v", hw)
	}
	return sent
}

// TestClaimFencesStaleOwner is the regression test for the stale-owner
// window during a rebalance: a member that snapshotted its assignment just
// before another member joined must not fetch (nor commit past) a partition
// that has moved away. Without the epoch fence in claim, the stale owner
// fetches the batch and the rightful owner finds the offset already
// advanced.
func TestClaimFencesStaleOwner(t *testing.T) {
	b := NewBroker()
	top := newTestTopic(t, b, "t", 2)
	seedBothPartitions(t, b, "t")

	g := top.group("g")
	a := g.join() // sole member: owns p0 and p1
	owned, epoch := g.assignmentEpoch(a, 2)
	if len(owned) != 2 {
		t.Fatalf("sole member owns %v, want both partitions", owned)
	}

	// Membership changes after the snapshot: members sort lexically, so the
	// earlier joiner keeps p0 and the new member takes p1.
	bMember := g.join()
	if got := g.assignment(a, 2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after join, a owns %v, want [0]", got)
	}
	if got := g.assignment(bMember, 2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after join, b owns %v, want [1]", got)
	}

	fetch := func(p int) func([]Record, int64) ([]Record, error) {
		return func(dst []Record, from int64) ([]Record, error) {
			return top.FetchInto(dst, p, from, 100)
		}
	}

	// Stale claim on the lost partition: must be fenced — no records, no
	// commit.
	got, err := g.claim(a, epoch, 1, nil, fetch(1))
	if err != nil {
		t.Fatalf("stale claim: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("stale owner fetched %d records from a reassigned partition", len(got))
	}
	if off := g.committedOffset(1); off != 0 {
		t.Fatalf("stale owner committed p1 to %d", off)
	}

	// Stale epoch on a partition the member still owns: liveness — the
	// fence re-checks ownership rather than rejecting the epoch outright.
	got, err = g.claim(a, epoch, 0, nil, fetch(0))
	if err != nil {
		t.Fatalf("retained-partition claim: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("fence blocked a partition the member still owns")
	}

	// The rightful owner's fresh claim gets everything from offset 0.
	_, freshEpoch := g.assignmentEpoch(bMember, 2)
	got, err = g.claim(bMember, freshEpoch, 1, nil, fetch(1))
	if err != nil {
		t.Fatalf("rightful claim: %v", err)
	}
	if len(got) == 0 || got[0].Offset != 0 {
		t.Fatalf("rightful owner got %d records (first offset %v), want all from 0",
			len(got), func() any {
				if len(got) > 0 {
					return got[0].Offset
				}
				return "none"
			}())
	}
}

// TestGenerationAndRebalanceChan covers the membership-change notification
// surface: Generation advances on join and leave, and RebalanceChan closes
// exactly when membership changes.
func TestGenerationAndRebalanceChan(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 2)

	c1, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c1.Close()
	gen := c1.Generation()
	ch := c1.RebalanceChan()
	select {
	case <-ch:
		t.Fatal("RebalanceChan closed with no membership change")
	default:
	}

	c2, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("RebalanceChan not closed after a member joined")
	}
	if c1.Generation() != gen+1 {
		t.Fatalf("Generation = %d after join, want %d", c1.Generation(), gen+1)
	}

	ch = c1.RebalanceChan()
	c2.Close()
	select {
	case <-ch:
	default:
		t.Fatal("RebalanceChan not closed after a member left")
	}
	if c1.Generation() != gen+2 {
		t.Fatalf("Generation = %d after leave, want %d", c1.Generation(), gen+2)
	}
}

// TestGroupCommittedTracksClaims verifies the committed-offset introspection
// used by crash recovery: after a group consumer drains the topic, the
// per-partition committed offsets equal the high watermarks.
func TestGroupCommittedTracksClaims(t *testing.T) {
	b := NewBroker()
	top := newTestTopic(t, b, "t", 2)
	sent := seedBothPartitions(t, b, "t")

	c, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c.Close()
	drained := 0
	for drained < sent {
		recs, err := c.TryPollInto(nil, 64)
		if err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		drained += len(recs)
	}

	offs, err := top.GroupCommitted("g")
	if err != nil {
		t.Fatalf("GroupCommitted: %v", err)
	}
	var total int64
	for p, off := range offs {
		if off != top.HighWatermark(p) {
			t.Fatalf("p%d committed %d, want high watermark %d", p, off, top.HighWatermark(p))
		}
		if off != c.Committed(p) {
			t.Fatalf("p%d Consumer.Committed %d != GroupCommitted %d", p, c.Committed(p), off)
		}
		total += off
	}
	if total != int64(sent) {
		t.Fatalf("committed total %d, want %d", total, sent)
	}
	if _, err := top.GroupCommitted("nope"); err == nil {
		t.Fatal("GroupCommitted on unknown group: want error")
	}
}
