// Package conformance is the executable contract of the transport boundary:
// a backend-agnostic test suite that holds every transport.Bus
// implementation to the in-memory broker's observable semantics — per-key
// ordering, group rebalance with generation-fenced exactly-once commits,
// bit-for-bit watermark propagation, end-of-stream broadcast, truthful lag
// probes, offset-addressed replay, blocking-poll wakeups, committed offsets
// that count what polls handed out (however far a backend fetched ahead),
// who owns which bytes across the boundary and until when, and shutdown
// behavior. The
// in-memory Mem backend runs it as a self-check; the TCP backend runs it to
// prove the wire adds latency but not semantics.
//
// Timing discipline: remote backends may delay wakeups and rebalance
// notifications by a round trip, so the suite asserts *eventual* delivery
// within generous deadlines and never asserts immediacy.
package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

// Backend is one bus-under-test instance plus the lever the shutdown tests
// need: a way to close the *backing* broker while the handle stays up (for
// a network backend, the daemon's bus dies but the client survives to
// observe it).
type Backend struct {
	Bus transport.Bus
	// ShutdownBackend closes the backing broker. Nil skips shutdown tests.
	ShutdownBackend func()
}

// Factory builds a fresh backend for one subtest; register cleanup on t.
type Factory func(t *testing.T) Backend

const suiteDeadline = 10 * time.Second

// Run executes the full suite against the factory's backend.
func Run(t *testing.T, mk Factory) {
	t.Run("TopicLifecycle", func(t *testing.T) { testTopicLifecycle(t, mk(t)) })
	t.Run("PerKeyOrdering", func(t *testing.T) { testPerKeyOrdering(t, mk(t)) })
	t.Run("RebalanceFencedCommits", func(t *testing.T) { testRebalance(t, mk(t)) })
	t.Run("WatermarkRoundTrip", func(t *testing.T) { testWatermarks(t, mk(t)) })
	t.Run("EOSBroadcast", func(t *testing.T) { testEOSBroadcast(t, mk(t)) })
	t.Run("LagProbes", func(t *testing.T) { testLagProbes(t, mk(t)) })
	t.Run("SeekReplay", func(t *testing.T) { testSeekReplay(t, mk(t)) })
	t.Run("BlockingWakeup", func(t *testing.T) { testBlockingWakeup(t, mk(t)) })
	t.Run("WakeAfterDrained", func(t *testing.T) { testWakeAfterDrained(t, mk(t)) })
	t.Run("RebalanceBacklogFound", func(t *testing.T) { testRebalanceBacklogFound(t, mk(t)) })
	t.Run("TryPollStaysExact", func(t *testing.T) { testTryPollStaysExact(t, mk(t)) })
	t.Run("CommittedAtCut", func(t *testing.T) { testCommittedAtCut(t, mk(t)) })
	t.Run("CloseHandsBackHeld", func(t *testing.T) { testCloseHandsBackHeld(t, mk(t)) })
	t.Run("CloseHandsBackHeldMinimalRetention", func(t *testing.T) { testCloseHandsBackHeldMinimal(t, mk(t)) })
	t.Run("LendOutlivesCompaction", func(t *testing.T) { testLendOutlivesCompaction(t, mk(t)) })
	t.Run("UnreadOutlivesCompaction", func(t *testing.T) { testUnreadOutlivesCompaction(t, mk(t)) })
	t.Run("FetchAt", func(t *testing.T) { testFetchAt(t, mk(t)) })
	t.Run("BufferOwnership", func(t *testing.T) { testBufferOwnership(t, mk(t)) })
	t.Run("BackendShutdown", func(t *testing.T) {
		be := mk(t)
		if be.ShutdownBackend == nil {
			t.Skip("backend has no shutdown lever")
		}
		testShutdown(t, be)
	})
}

func mustCreate(t *testing.T, bus transport.Bus, topic string, parts int) {
	t.Helper()
	if err := bus.CreateTopic(topic, parts, 0); err != nil {
		t.Fatalf("CreateTopic(%q): %v", topic, err)
	}
}

// minRetain is the least retention CreateTopic takes short of unlimited —
// what the engine asks for without a checkpoint store to replay for. At it
// a partition keeps one consumed record: everything else nobody reads any
// more is freed, its segments reused by the next appends.
const minRetain = 1

// bigValue is a record size at which every append seals a segment of the
// in-memory broker (64 KiB), so compaction runs at every send and a freed
// segment is rewritten by the next one.
const bigValue = 40 << 10

// bigSender sends records of bigValue bytes, value i repeated, out of one
// block it scribbles over as soon as each send returns — the sender's right
// — and returns a copy of what it sent.
func bigSender(t *testing.T, p transport.Producer) func(i int) []byte {
	block := make([]byte, bigValue)
	return func(i int) []byte {
		t.Helper()
		for j := range block {
			block[j] = byte(i)
		}
		if err := p.SendBatch("t", []transport.Record{{Value: block}}); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		want := bytes.Repeat([]byte{byte(i)}, bigValue)
		for j := range block {
			block[j] = 0xEE
		}
		return want
	}
}

// send appends one record to topic "t" through SendBatch.
func send(t *testing.T, p transport.Producer, key, value []byte) {
	t.Helper()
	if err := p.SendBatch("t", []transport.Record{{Key: key, Value: value}}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
}

// sendTo appends one record to partition part of topic "t".
func sendTo(t *testing.T, p transport.Producer, part int, rec transport.Record) {
	t.Helper()
	if err := p.SendTo("t", part, []transport.Record{rec}); err != nil {
		t.Fatalf("SendTo(%d): %v", part, err)
	}
}

// own appends copies of recs onto dst, Key and Value included: a lent record
// outlives the next poll only as a copy.
func own(dst, recs []transport.Record) []transport.Record {
	for _, r := range recs {
		r.Key, r.Value = bytes.Clone(r.Key), bytes.Clone(r.Value)
		dst = append(dst, r)
	}
	return dst
}

// drainN polls a consumer until n records are collected or the deadline
// passes, and returns copies of them.
func drainN(t *testing.T, c transport.Consumer, n int) []transport.Record {
	t.Helper()
	var out, scratch []transport.Record
	deadline := time.Now().Add(suiteDeadline)
	for len(out) < n && time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		var err error
		scratch, err = c.PollInto(ctx, scratch[:0], n-len(out))
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("PollInto: %v", err)
		}
		out = own(out, scratch)
	}
	if len(out) != n {
		t.Fatalf("drained %d records, want %d", len(out), n)
	}
	return out
}

func testTopicLifecycle(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 4)
	// Idempotent re-create with the same partition count: multi-process
	// startups race this.
	if err := bus.CreateTopic("t", 4, 0); err != nil {
		t.Fatalf("idempotent CreateTopic: %v", err)
	}
	// A partition-count mismatch must refuse — it would split the key hash
	// space between processes.
	if err := bus.CreateTopic("t", 8, 0); err == nil {
		t.Fatal("CreateTopic with mismatched partitions succeeded")
	}
	n, err := bus.TopicPartitions("t")
	if err != nil || n != 4 {
		t.Fatalf("TopicPartitions = %d, %v; want 4, nil", n, err)
	}
	if _, err := bus.TopicPartitions("nope"); !errors.Is(err, mq.ErrUnknownTopic) {
		t.Fatalf("TopicPartitions(unknown) = %v, want ErrUnknownTopic", err)
	}
	if _, err := bus.NewConsumer("nope"); !errors.Is(err, mq.ErrUnknownTopic) {
		t.Fatalf("NewConsumer(unknown) = %v, want ErrUnknownTopic", err)
	}
}

func testPerKeyOrdering(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 4)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c.Close()

	const keys, perKey = 8, 40
	p := bus.NewProducer()
	// Interleave one-record sends and batches: both must preserve per-key
	// order because they share the key-hash partitioner.
	var batch []transport.Record
	for seq := 0; seq < perKey; seq++ {
		for k := 0; k < keys; k++ {
			key := []byte(fmt.Sprintf("key-%d", k))
			val := []byte(fmt.Sprintf("%d:%d", k, seq))
			if seq%2 == 0 {
				send(t, p, key, val)
			} else {
				batch = append(batch, transport.Record{Key: key, Value: val})
			}
		}
		if len(batch) > 0 {
			if err := p.SendBatch("t", batch); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			batch = batch[:0]
		}
	}

	recs := drainN(t, c, keys*perKey)
	lastSeq := map[string]int{}
	part := map[string]int{}
	for _, r := range recs {
		var k, seq int
		if _, err := fmt.Sscanf(string(r.Value), "%d:%d", &k, &seq); err != nil {
			t.Fatalf("bad value %q", r.Value)
		}
		key := string(r.Key)
		if last, ok := lastSeq[key]; ok && seq <= last {
			t.Fatalf("key %s: seq %d arrived after %d — per-key order broken", key, seq, last)
		}
		lastSeq[key] = seq
		if prev, ok := part[key]; ok && prev != r.Partition {
			t.Fatalf("key %s spread across partitions %d and %d", key, prev, r.Partition)
		}
		part[key] = r.Partition
	}
	for k, last := range lastSeq {
		if last != perKey-1 {
			t.Fatalf("key %s: last seq %d, want %d", k, last, perKey-1)
		}
	}
}

func testRebalance(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 4)
	p := bus.NewProducer()

	produce := func(n int, tag string) {
		for i := 0; i < n; i++ {
			send(t, p, []byte(fmt.Sprintf("k%d", i%16)), []byte(fmt.Sprintf("%s-%d", tag, i)))
		}
	}

	type slot struct {
		part int
		off  int64
	}
	// collect polls c for budget and returns what it saw; callers merge, so
	// concurrent collectors never share state.
	collect := func(c transport.Consumer, budget time.Duration) map[slot]int {
		got := map[slot]int{}
		var recs []transport.Record
		deadline := time.Now().Add(budget)
		for time.Now().Before(deadline) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			var err error
			recs, err = c.PollInto(ctx, recs[:0], 64)
			cancel()
			if err != nil {
				continue
			}
			for _, r := range recs {
				got[slot{r.Partition, r.Offset}]++
			}
		}
		return got
	}
	seen := map[slot]int{}
	total := 0
	merge := func(got map[slot]int) {
		for s, n := range got {
			seen[s] += n
			total += n
		}
	}

	a, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatalf("consumer a: %v", err)
	}
	defer a.Close()
	if got := len(a.Assignment()); got != 4 {
		t.Fatalf("a lone member owns %d partitions, want 4", got)
	}

	produce(400, "phase1")
	merge(collect(a, 300*time.Millisecond))

	// Second member joins: a's share must drop (eventually — a remote
	// backend answers from the daemon's group).
	b, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatalf("consumer b: %v", err)
	}
	waitFor(t, "a's share drops on member join", func() bool { return len(a.Assignment()) < 4 })

	produce(400, "phase2")
	// a and b poll concurrently: the fenced claims must never double-deliver
	// a (partition, offset).
	fromB := make(chan map[slot]int, 1)
	go func() { fromB <- collect(b, 400*time.Millisecond) }()
	gotA := collect(a, 400*time.Millisecond)
	merge(<-fromB)
	merge(gotA)

	// Member b leaves; a picks everything back up.
	b.Close()
	waitFor(t, "a owns every partition again after b leaves", func() bool { return len(a.Assignment()) == 4 })
	produce(200, "phase3")
	waitFor(t, "full drain after leave", func() bool {
		merge(collect(a, 200*time.Millisecond))
		return total >= 1000
	})

	for s, n := range seen {
		if n > 1 {
			t.Fatalf("partition %d offset %d delivered %d times — fencing failed", s.part, s.off, n)
		}
	}
	if total != 1000 {
		t.Fatalf("delivered %d records total, want exactly 1000", total)
	}
	// All 1000 committed: group lag returns to zero.
	waitFor(t, "group lag zero", func() bool {
		lag, err := bus.GroupLag("t", "g")
		return err == nil && lag == 0
	})
}

func testWatermarks(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 3)
	c, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer c.Close()

	p := bus.NewProducer()
	at := time.Unix(0, 1723000000000000000)
	// Keyed watermarked send, a keepalive (zero At, non-empty From) sent to
	// a partition, and a batch with per-record watermarks: all must cross
	// bit-for-bit.
	if err := p.SendBatch("t", []transport.Record{{Key: []byte("k"), Value: []byte("v"), Watermark: mq.Watermark{From: "leaf-1", At: at}}}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	sendTo(t, p, 2, transport.Record{Value: []byte("ka"), Watermark: mq.Watermark{From: "leaf-2"}})
	batch := []transport.Record{
		{Key: []byte("k"), Value: []byte("b0"), Watermark: mq.Watermark{From: "leaf-3", At: at.Add(time.Second)}},
		{Key: []byte("k"), Value: []byte("b1")},
	}
	if err := p.SendBatch("t", batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}

	recs := drainN(t, c, 4)
	byVal := map[string]mq.Watermark{}
	for _, r := range recs {
		byVal[string(r.Value)] = r.Watermark
	}
	if wm := byVal["v"]; wm.From != "leaf-1" || !wm.At.Equal(at) {
		t.Fatalf("watermark on v = %+v, want leaf-1@%v", wm, at)
	}
	if wm := byVal["ka"]; wm.From != "leaf-2" || !wm.At.IsZero() {
		t.Fatalf("keepalive watermark = %+v, want leaf-2 with zero At", wm)
	}
	if wm := byVal["b0"]; wm.From != "leaf-3" || !wm.At.Equal(at.Add(time.Second)) {
		t.Fatalf("batch watermark = %+v", wm)
	}
	if wm := byVal["b1"]; wm.From != "" || !wm.At.IsZero() {
		t.Fatalf("unwatermarked batch record carried %+v", wm)
	}
}

func testEOSBroadcast(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 3)
	// Two group members split the partitions; the broadcast must reach
	// every partition so both members observe end-of-stream.
	a, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The tree's EOS convention: a far-future watermark broadcast to every
	// partition (year-2200 nanos still fit int64 — it must survive the wire).
	eosAt := time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)
	p := bus.NewProducer()
	parts, _ := bus.TopicPartitions("t")
	for pi := 0; pi < parts; pi++ {
		sendTo(t, p, pi, transport.Record{Value: []byte("eos"), Watermark: mq.Watermark{From: "root", At: eosAt}})
	}

	got := map[int]mq.Watermark{}
	var recs []transport.Record
	deadline := time.Now().Add(suiteDeadline)
	for len(got) < parts && time.Now().Before(deadline) {
		for _, c := range []transport.Consumer{a, b} {
			var err error
			if recs, err = c.TryPollInto(recs[:0], 16); err != nil {
				t.Fatalf("TryPollInto: %v", err)
			}
			for _, r := range recs {
				got[r.Partition] = r.Watermark
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(got) != parts {
		t.Fatalf("EOS reached %d partitions, want %d", len(got), parts)
	}
	for pi, wm := range got {
		if !wm.At.Equal(eosAt) {
			t.Fatalf("partition %d: EOS At = %v, want %v", pi, wm.At, eosAt)
		}
	}
}

func testLagProbes(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 2)
	// The probe order matters: the group must exist (a member joined)
	// before GroupLag is asked, matching how the session creates the leaf
	// valve's group before probing it.
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := bus.NewProducer()
	const n = 100
	for i := 0; i < n; i++ {
		send(t, p, []byte{byte(i % 7)}, []byte{byte(i)})
	}
	lag, err := bus.GroupLag("t", "g")
	if err != nil || lag != n {
		t.Fatalf("GroupLag before consume = %d, %v; want %d — an under-reporting "+
			"backend silently disables ingest backpressure", lag, err, n)
	}
	if got := s.Lag(); got != n {
		t.Fatalf("standalone Lag = %d, want %d", got, n)
	}
	if _, err := bus.GroupLag("t", "no-such-group"); err == nil {
		t.Fatal("GroupLag(unknown group) succeeded")
	}
	if _, err := bus.GroupLag("no-such-topic", "g"); !errors.Is(err, mq.ErrUnknownTopic) {
		t.Fatalf("GroupLag(unknown topic) = %v, want ErrUnknownTopic", err)
	}

	drainN(t, c, n)
	waitFor(t, "group lag drains to zero", func() bool {
		lag, err := bus.GroupLag("t", "g")
		return err == nil && lag == 0
	})
	offs, err := bus.GroupCommitted("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, off := range offs {
		sum += off
	}
	if sum != n {
		t.Fatalf("committed offsets sum to %d, want %d", sum, n)
	}

	drainN(t, s, n)
	if got := s.Lag(); got != 0 {
		t.Fatalf("standalone Lag after drain = %d, want 0", got)
	}
}

// testSeekReplay: what a standalone consumer has read stays readable by
// offset — FetchInto from 0 replays every partition record for record —
// and its positions stand past the last record of each.
func testSeekReplay(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 2)
	p := bus.NewProducer()
	const n = 20
	for i := 0; i < n; i++ {
		send(t, p, []byte{byte(i % 5)}, []byte{byte(i)})
	}
	s, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := drainN(t, s, n)
	want := map[[2]int64][]byte{}
	for _, r := range first {
		want[[2]int64{int64(r.Partition), r.Offset}] = r.Value
	}
	replayed := 0
	for _, part := range s.Assignment() {
		recs, err := bus.FetchInto(nil, "t", part, 0, n)
		if err != nil {
			t.Fatalf("FetchInto(%d, 0): %v", part, err)
		}
		for _, r := range recs {
			if v, ok := want[[2]int64{int64(part), r.Offset}]; !ok || !bytes.Equal(v, r.Value) {
				t.Fatalf("replay of partition %d offset %d reads %x, first read %x", part, r.Offset, r.Value, v)
			}
		}
		if got := s.Committed(part); got != int64(len(recs)) {
			t.Fatalf("Committed(%d) = %d after reading its %d records", part, got, len(recs))
		}
		replayed += len(recs)
	}
	if replayed != len(first) {
		t.Fatalf("replay returned %d records, want %d", replayed, len(first))
	}
}

func testBlockingWakeup(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 1)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()

	// A blocked Poll must be woken by a concurrent produce.
	errCh := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		errCh <- p.SendBatch("t", []transport.Record{{Value: []byte("wake")}})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), suiteDeadline)
	recs, err := c.PollInto(ctx, nil, 4)
	cancel()
	if err != nil || len(recs) != 1 {
		t.Fatalf("blocked PollInto woke with %d recs, %v", len(recs), err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// The pump's arm/try/park sequence: arm WaitChan, find nothing, park,
	// then a produce must close the armed channel itself (within a round trip
	// for remote backends). A parked pump has no timer of its own: no
	// re-arm, no re-poll may rescue a lost wakeup here.
	ch := c.WaitChan()
	if recs, err := c.TryPollInto(recs[:0], 4); err != nil || len(recs) != 0 {
		t.Fatalf("TryPollInto on idle topic = %d recs, %v", len(recs), err)
	}
	send(t, p, nil, []byte("wake2"))
	select {
	case <-ch:
	case <-time.After(suiteDeadline):
		t.Fatalf("the armed WaitChan did not fire within %v of a produce", suiteDeadline)
	}
	drainN(t, c, 1)
}

// findNothingTwice runs the pump's arm/try sequence until two lending
// try-polls in a row come back empty — by then a remote backend has been told
// the consumer is drained and has its wake path parked — and returns what the
// polls before that delivered. The channel returned was armed before the last
// empty poll.
func findNothingTwice(t *testing.T, c transport.Consumer) (got int, armed <-chan struct{}) {
	t.Helper()
	var scratch []transport.Record
	for empties := 0; empties < 2; {
		armed = c.WaitChan()
		var err error
		if scratch, err = c.TryPollInto(scratch[:0], 64); err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		if len(scratch) == 0 {
			empties++
		} else {
			empties = 0
			got += len(scratch)
		}
	}
	return got, armed
}

// testWakeAfterDrained hunts the lost wakeup: a consumer that has found
// nothing — and, on a remote backend, stopped asking — must be woken by the
// next append to a partition it owns, and the lending try-poll after the
// wakeup must find the record. Back to back, no sleeps: every round's send
// races the wake path's re-parking after the previous one.
func testWakeAfterDrained(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 2)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()
	var scratch []transport.Record
	for round := 0; round < 200; round++ {
		stray, armed := findNothingTwice(t, c)
		if stray != 0 {
			t.Fatalf("round %d: %d records nobody sent", round, stray)
		}
		sendTo(t, p, round%2, transport.Record{Value: []byte{byte(round)}})
		select {
		case <-armed:
		case <-time.After(suiteDeadline):
			t.Fatalf("round %d: the channel armed before the empty poll never fired after a completed send — a lost wakeup", round)
		}
		if scratch, err = c.TryPollInto(scratch[:0], 4); err != nil {
			t.Fatalf("round %d: TryPollInto: %v", round, err)
		}
		if len(scratch) != 1 || scratch[0].Value[0] != byte(round) {
			t.Fatalf("round %d: the poll after the wakeup found %d records, want the one just sent", round, len(scratch))
		}
	}
}

// testRebalanceBacklogFound: a member that has drained its own partitions
// and gone quiet must find the backlog a departing member leaves behind
// without waiting for anyone to append — the rebalance itself is the news,
// and it fires the member's armed WaitChan.
func testRebalanceBacklogFound(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 2)
	a, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, "partitions dealt across both members", func() bool {
		return len(a.Assignment()) == 1 && len(b.Assignment()) == 1
	})
	const perPart = 8
	p := bus.NewProducer()
	for i := 0; i < perPart; i++ {
		for part := 0; part < 2; part++ {
			sendTo(t, p, part, transport.Record{Value: []byte{byte(part), byte(i)}})
		}
	}
	// The survivor takes its own half, finds nothing twice, and sits out one
	// idle wait as a pump would — long enough for a remote backend's wake path
	// to be parked on the old assignment. b never polls: its half stays queued.
	own, idle := findNothingTwice(t, a)
	if own != perPart {
		t.Fatalf("survivor drained %d records of its own partition, want %d", own, perPart)
	}
	select {
	case <-idle: // a spurious wakeup: park again
		_, idle = findNothingTwice(t, a)
	case <-time.After(100 * time.Millisecond):
	}

	// The channel armed before the rebalance is the one a parked pump waits
	// on: the rebalance must fire it.
	b.Close()
	start := time.Now()
	select {
	case <-idle:
	case <-time.After(time.Second):
		t.Fatal("the WaitChan armed before the rebalance did not fire when it handed the survivor a backlog")
	}
	orphaned := 0
	var scratch []transport.Record
	for orphaned < perPart {
		if time.Since(start) > time.Second {
			t.Fatalf("survivor found %d of the %d orphaned records within 1 s of the rebalance, with no further append", orphaned, perPart)
		}
		wake := a.WaitChan()
		if scratch, err = a.TryPollInto(scratch[:0], 64); err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		if orphaned += len(scratch); len(scratch) > 0 {
			continue
		}
		// Park on the armed channel alone, as a pump does: the rebalance
		// must fire it, no re-poll rescues a lost wakeup.
		select {
		case <-wake:
		case <-time.After(time.Until(start.Add(time.Second))):
		}
	}
}

// testTryPollStaysExact: a consumer that never armed WaitChan has no wake
// path to answer for it, so its non-blocking poll always looks. However
// often it has come back empty, a TryPollInto issued after a send completed
// returns that record.
func testTryPollStaysExact(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 1)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()
	var recs []transport.Record
	for round := 0; round < 50; round++ {
		for empties := 0; empties < 2; {
			if recs, err = c.TryPollInto(recs[:0], 64); err != nil {
				t.Fatalf("round %d: TryPollInto: %v", round, err)
			}
			if len(recs) == 0 {
				empties++
			}
		}
		send(t, p, nil, []byte{byte(round)})
		if recs, err = c.TryPollInto(recs[:0], 4); err != nil {
			t.Fatalf("round %d: TryPollInto: %v", round, err)
		}
		if len(recs) != 1 || recs[0].Value[0] != byte(round) {
			t.Fatalf("round %d: TryPollInto right after a completed send returned %d records, want that one", round, len(recs))
		}
	}
}

// pollSome runs the pump's arm/try/park sequence until a lending poll of at
// most max records hands some out, and returns them.
func pollSome(t *testing.T, c transport.Consumer, scratch []transport.Record, max int) []transport.Record {
	t.Helper()
	deadline := time.Now().Add(suiteDeadline)
	for time.Now().Before(deadline) {
		wake := c.WaitChan()
		var err error
		if scratch, err = c.TryPollInto(scratch[:0], max); err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		if len(scratch) > 0 {
			return scratch
		}
		select {
		case <-wake:
		case <-time.After(time.Until(deadline)):
		}
	}
	t.Fatalf("no record within %v", suiteDeadline)
	return nil
}

// testCommittedAtCut: Committed is the processed view — the offset past the
// last record a poll has handed out — at every cut between polls, however
// much the backend has fetched ahead for the consumer, and a batch that lands
// while the consumer is parked does not move it. Checkpoints are cut there.
func testCommittedAtCut(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 1)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()
	for i := 0; i < 10; i++ {
		send(t, p, nil, []byte{byte(i)})
	}
	var scratch []transport.Record
	for taken := 0; taken < 10; {
		scratch = pollSome(t, c, scratch, 3)
		for _, r := range scratch {
			if r.Offset != int64(taken) {
				t.Fatalf("record at offset %d handed out as number %d", r.Offset, taken)
			}
			taken++
		}
		if got := c.Committed(0); got != int64(taken) {
			t.Fatalf("Committed(0) = %d after polls handed out %d records", got, taken)
		}
	}
	// A batch lands while the consumer is parked: nothing is handed out, so
	// the cut stays where the polls left it.
	wake := c.WaitChan()
	if scratch, err = c.TryPollInto(scratch[:0], 3); err != nil || len(scratch) != 0 {
		t.Fatalf("TryPollInto on a drained consumer = %d records, %v", len(scratch), err)
	}
	if err := p.SendBatch("t", []transport.Record{{Value: []byte{10}}, {Value: []byte{11}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(suiteDeadline):
		t.Fatal("the armed WaitChan did not fire after a send")
	}
	if got := c.Committed(0); got != 10 {
		t.Fatalf("Committed(0) = %d with a batch landed and not polled, want 10", got)
	}
	if got := c.Lag(); got != 2 {
		t.Fatalf("Lag = %d with two records landed and not polled, want 2", got)
	}
}

// testCloseHandsBackHeld: a member that closes holding records it never
// handed out — fetched ahead by the backend — leaves them to the group: the
// next member gets exactly those, each once, and none it did hand out.
func testCloseHandsBackHeld(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 1)
	a, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	p := bus.NewProducer()
	for i := 0; i < 20; i++ {
		send(t, p, nil, []byte{byte(i)})
	}
	first := pollSome(t, a, nil, 5)
	handed := len(first)
	if got := a.Committed(0); got != int64(handed) {
		t.Fatalf("Committed(0) = %d after %d records handed out", got, handed)
	}
	a.Close()
	b, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rest := drainN(t, b, 20-handed)
	for i, r := range rest {
		if want := byte(handed + i); r.Value[0] != want || r.Offset != int64(want) {
			t.Fatalf("the next member's record %d is value %d at offset %d, want %d", i, r.Value[0], r.Offset, want)
		}
	}
	if extra := drainExtra(b); extra != 0 {
		t.Fatalf("the next member got %d records more than the %d left", extra, 20-handed)
	}
}

// drainExtra polls c briefly and counts what it still delivers.
func drainExtra(c transport.Consumer) int {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	recs, _ := c.PollInto(ctx, nil, 64)
	return len(recs)
}

// testCloseHandsBackHeldMinimal is CloseHandsBackHeld at the engine's
// minimal retention, with the log moving on while the member holds its
// records: another group reads everything and more records are sent, so
// compaction runs past what the member was handed. What it held and never
// handed out must still be readable when its close hands it back — over TCP
// the daemon has claimed (committed) all of it, and only the push frames the
// client has not credited back hold it.
func testCloseHandsBackHeldMinimal(t *testing.T, be Backend) {
	bus := be.Bus
	if err := bus.CreateTopic("t", 1, minRetain); err != nil {
		t.Fatal(err)
	}
	a, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	other, err := bus.NewGroupConsumer("t", "other")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	sendBig := bigSender(t, bus.NewProducer())
	const first, total = 10, 20
	for i := 0; i < first; i++ {
		sendBig(i)
	}
	handed := len(pollSome(t, a, nil, 3))
	drainN(t, other, first)
	for i := first; i < total; i++ {
		sendBig(i)
		drainN(t, other, 1)
	}
	a.Close()
	b, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rest := drainN(t, b, total-handed)
	for i, r := range rest {
		want := handed + i
		if r.Offset != int64(want) || !bytes.Equal(r.Value, bytes.Repeat([]byte{byte(want)}, bigValue)) {
			t.Fatalf("the next member's record %d is at offset %d reading % x..., want offset %d reading %02x...", i, r.Offset, r.Value[:4], want, want)
		}
	}
	if extra := drainExtra(b); extra != 0 {
		t.Fatalf("the next member got %d records more than the %d left", extra, total-handed)
	}
}

// testLendOutlivesCompaction: a lending poll's records stay intact until the
// consumer's next poll, however far the log moves on meanwhile — another
// group reads past them and more records are sent, at the engine's minimal
// retention, so compaction runs and frees what it may at every send. (The
// in-memory backend lends views of its segments; freed, they would be
// rewritten by the next sends.)
func testLendOutlivesCompaction(t *testing.T, be Backend) {
	bus := be.Bus
	if err := bus.CreateTopic("t", 1, minRetain); err != nil {
		t.Fatal(err)
	}
	a, err := bus.NewGroupConsumer("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	other, err := bus.NewGroupConsumer("t", "other")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	sendBig := bigSender(t, bus.NewProducer())
	const lent, more = 4, 16
	var want [][]byte
	for i := 0; i < lent; i++ {
		want = append(want, sendBig(i))
	}
	got := pollSome(t, a, nil, lent)
	if len(got) < 2 {
		t.Fatalf("the lending poll took %d records, want at least two (a partition keeps its newest consumed one anyway)", len(got))
	}
	drainN(t, other, lent)
	for i := lent; i < lent+more; i++ {
		sendBig(i)
		drainN(t, other, 1)
	}
	for i, r := range got {
		if r.Offset != int64(i) || !bytes.Equal(r.Value, want[i]) {
			t.Fatalf("lent record %d reads offset %d, % x... after the log moved on; it was offset %d, %02x...", i, r.Offset, r.Value[:4], i, i)
		}
	}
}

// testUnreadOutlivesCompaction: a standalone consumer's unread records stay
// readable however far a group reads past them, at the engine's minimal
// retention — its position holds them.
func testUnreadOutlivesCompaction(t *testing.T, be Backend) {
	bus := be.Bus
	if err := bus.CreateTopic("t", 1, minRetain); err != nil {
		t.Fatal(err)
	}
	s, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sendBig := bigSender(t, bus.NewProducer())
	const n = 12
	for i := 0; i < n; i++ {
		sendBig(i)
		drainN(t, g, 1)
	}
	for i, r := range drainN(t, s, n) {
		if r.Offset != int64(i) || !bytes.Equal(r.Value, bytes.Repeat([]byte{byte(i)}, bigValue)) {
			t.Fatalf("the standalone consumer's record %d is at offset %d reading % x..., want %02x...", i, r.Offset, r.Value[:4], i)
		}
	}
}

func testFetchAt(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 2)
	p := bus.NewProducer()
	for i := 0; i < 10; i++ {
		sendTo(t, p, i%2, transport.Record{Key: []byte{byte(i)}, Value: []byte{byte(i * 10)}})
	}
	// Offset-addressed replay (the crash-recovery read): absolute offsets,
	// no consumer state.
	recs, err := bus.FetchInto(nil, "t", 0, 2, 16)
	if err != nil {
		t.Fatalf("FetchInto: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("FetchInto from offset 2 returned %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(2+i) || r.Partition != 0 {
			t.Fatalf("record %d at partition %d offset %d, want 0/%d", i, r.Partition, r.Offset, 2+i)
		}
	}
	if _, err := bus.FetchInto(nil, "t", 9, 0, 1); err == nil {
		t.Fatal("FetchInto on bogus partition succeeded")
	}
}

// testBufferOwnership pins the package's buffer-ownership rule from both
// sides of the bus, at the engine's minimal retention. Every record of the
// test has the same size, so a backend that recycles a buffer it had
// promised away rewrites exactly the bytes an earlier record still points
// at; the sender scribbles over its block as soon as each send returns.
func testBufferOwnership(t *testing.T, be Backend) {
	bus := be.Bus
	if err := bus.CreateTopic("t", 1, minRetain); err != nil {
		t.Fatal(err)
	}
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()

	const valueLen = 4 << 10 // 16 records to a 64 KiB segment of the in-memory broker
	seq := 0
	var block []byte
	// send appends n records (key k<seq>, value valueLen bytes of seq) out of
	// one block it overwrites once the send returns, and returns private
	// copies of what it sent, in order.
	send := func(n int) (want []transport.Record) {
		t.Helper()
		block = block[:0]
		batch := make([]transport.Record, n)
		for i := range batch {
			ks := len(block)
			block = append(block, fmt.Sprintf("k%06d", seq)...)
			ke := len(block)
			block = append(block, bytes.Repeat([]byte{byte(seq), byte(seq >> 8)}, valueLen/2)...)
			batch[i] = transport.Record{Key: block[ks:ke:ke], Value: block[ke:len(block):len(block)]}
			want = append(want, transport.Record{Key: bytes.Clone(batch[i].Key), Value: bytes.Clone(batch[i].Value)})
			seq++
		}
		if err := p.SendBatch("t", batch); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		for i := range block {
			block[i] = 0xEE
		}
		return want
	}
	same := func(what string, got, want []transport.Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s: record %d reads key %q value % x..., sent key %q value % x...",
					what, i, got[i].Key, got[i].Value[:4], want[i].Key, want[i].Value[:4])
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), suiteDeadline)
	defer cancel()
	// lend drains n records through the lending polls, alternating the two
	// forms, checking each fetch against what was sent before the next one.
	scratch := make([]transport.Record, 0, 16)
	lend := func(want []transport.Record) {
		t.Helper()
		for round := 0; len(want) > 0; round++ {
			var err error
			if round%2 == 0 {
				scratch, err = c.PollInto(ctx, scratch[:0], 3)
			} else if scratch, err = c.TryPollInto(scratch[:0], 3); len(scratch) == 0 && err == nil {
				continue // not there yet; the blocking form is next
			}
			if err != nil {
				t.Fatalf("lending poll: %v", err)
			}
			same("lending poll, read before the next one", scratch, want[:len(scratch)])
			want = want[len(scratch):]
		}
	}

	// Owned bytes: what FetchInto returns is the caller's for good.
	wantFetch := send(8)
	lend(wantFetch)
	gotFetch, err := bus.FetchInto(nil, "t", 0, 0, 8)
	if err != nil {
		t.Fatalf("FetchInto: %v", err)
	}

	// Lent bytes: valid until the next lending poll — a FetchInto in between
	// is not one.
	wantLent := send(2)
	lent, err := c.PollInto(ctx, nil, 2)
	if err != nil || len(lent) != 2 {
		t.Fatalf("PollInto = %d records, %v; want the batch of 2", len(lent), err)
	}
	more := send(2)
	if _, err := bus.FetchInto(nil, "t", 0, int64(seq-2), 2); err != nil {
		t.Fatalf("FetchInto: %v", err)
	}
	same("PollInto after a FetchInto", lent, wantLent)
	lend(more)

	// 64 further sends and polls, frames of varying size: the records read
	// first are consumed, their segments freed and rewritten.
	for i := 0; i < 64; i++ {
		n := 1 + i%4
		lend(send(n))
		if _, err := bus.FetchInto(nil, "t", 0, int64(seq-n), n); err != nil {
			t.Fatalf("FetchInto: %v", err)
		}
	}
	if _, err := bus.FetchInto(nil, "t", 0, 0, 1); !errors.Is(err, mq.ErrOutOfRange) {
		t.Fatalf("FetchInto of the first record after %d consumed ones at retention %d: %v, want mq.ErrOutOfRange", seq, minRetain, err)
	}
	same("FetchInto after its records were freed and 64 further sends and polls", gotFetch, wantFetch)
}

func testShutdown(t *testing.T, be Backend) {
	bus := be.Bus
	mustCreate(t, bus, "t", 1)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()
	for i := 0; i < 3; i++ {
		send(t, p, nil, []byte{byte(i)})
	}

	be.ShutdownBackend()

	// Retained records drain even after shutdown; then polls report closed.
	recs := drainN(t, c, 3)
	if len(recs) != 3 {
		t.Fatalf("drained %d retained records after shutdown", len(recs))
	}
	waitFor(t, "poll reports closed", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := c.PollInto(ctx, nil, 1)
		cancel()
		return errors.Is(err, mq.ErrClosed)
	})
	waitFor(t, "TopicClosed observed", c.TopicClosed)
}

// waitFor polls cond until true or the suite deadline, failing with name.
func waitFor(t *testing.T, name string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(suiteDeadline)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", name)
}
