package mq

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestDeleteTopic(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	if err := b.DeleteTopic("t"); err != nil {
		t.Fatalf("DeleteTopic: %v", err)
	}
	if _, err := b.Topic("t"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("topic survived deletion: %v", err)
	}
	if err := b.DeleteTopic("t"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("double delete err = %v, want ErrUnknownTopic", err)
	}
	// The name is reusable after deletion.
	if _, err := b.CreateTopic("t", 1); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
}

func TestDeleteTopicWakesBlockedConsumers(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	c, _ := NewConsumer(b, "t")
	errs := make(chan error, 1)
	go func() {
		_, err := c.PollInto(context.Background(), nil, 1)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := b.DeleteTopic("t"); err != nil {
		t.Fatalf("DeleteTopic: %v", err)
	}
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("poll err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer never woke after topic deletion")
	}
}

func TestGroupsListing(t *testing.T) {
	b := NewBroker()
	topic := newTestTopic(t, b, "t", 2)
	if got := topic.Groups(); len(got) != 0 {
		t.Fatalf("fresh topic has groups %v", got)
	}
	c1, _ := NewGroupConsumer(b, "t", "zeta")
	c2, _ := NewGroupConsumer(b, "t", "alpha")
	defer c1.Close()
	defer c2.Close()
	got := topic.Groups()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Groups() = %v, want sorted [alpha zeta]", got)
	}
}

func TestGroupMemberCloseRebalancesAndDrains(t *testing.T) {
	// A member leaving mid-run must release its partitions to the
	// survivors, who then drain the topic to zero group lag — the dynamic
	// half of the consumer-group contract (the static split is covered by
	// the consumer tests).
	b := NewBroker()
	topic := newTestTopic(t, b, "t", 4)
	p := NewProducer(b)
	c1, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	c2, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c2.Close()

	if got := len(c1.Assignment()) + len(c2.Assignment()); got != 4 {
		t.Fatalf("two members jointly own %d partitions, want 4", got)
	}
	const n = 64
	for i := 0; i < n; i++ {
		// Distinct keys spread records across all four partitions.
		if _, err := send(p, "t", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}

	// c1 consumes part of its share, then leaves mid-run. Its committed
	// offsets stay with the group, so nothing it already processed is
	// replayed and nothing it had not reached is lost.
	if _, err := c1.PollInto(context.Background(), nil, 8); err != nil {
		t.Fatalf("c1.PollInto: %v", err)
	}
	c1.Close()
	if got := c1.Assignment(); len(got) != 0 {
		t.Fatalf("closed member still owns partitions %v", got)
	}
	if got := c2.Assignment(); len(got) != 4 {
		t.Fatalf("survivor owns %v after rebalance, want all 4 partitions", got)
	}

	// The survivor drains everything that remains.
	seen := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && c2.Lag() > 0 {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		recs, err := c2.PollInto(ctx, nil, 16)
		cancel()
		if err != nil {
			t.Fatalf("survivor PollInto: %v", err)
		}
		seen += len(recs)
	}
	if lag, err := topic.GroupLag("g"); err != nil || lag != 0 {
		t.Fatalf("group lag after drain = (%d, %v), want 0", lag, err)
	}
	if seen < n-8 {
		t.Fatalf("survivor drained %d records, want at least %d (all minus the leaver's committed share)", seen, n-8)
	}
}

func TestGroupLag(t *testing.T) {
	b := NewBroker()
	topic := newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	c, _ := NewGroupConsumer(b, "t", "g")
	defer c.Close()
	for i := 0; i < 10; i++ {
		send(p, "t", nil, []byte{byte(i)})
	}
	lag, err := topic.GroupLag("g")
	if err != nil || lag != 10 {
		t.Fatalf("GroupLag = (%d, %v), want 10", lag, err)
	}
	c.PollInto(context.Background(), nil, 4)
	lag, _ = topic.GroupLag("g")
	if lag != 6 {
		t.Fatalf("GroupLag after consuming 4 = %d, want 6", lag)
	}
	if _, err := topic.GroupLag("ghost"); err == nil {
		t.Fatal("unknown group accepted")
	}
}
