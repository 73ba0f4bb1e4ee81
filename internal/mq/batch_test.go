package mq

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// The batched produce/consume hot path must be semantically invisible: a
// SendBatch delivers exactly what the same records sent one batch each would
// deliver — same partitions for keyed records, same per-key order, same
// piggybacked watermarks — and PollInto delivers them in order, appended
// onto a caller-owned scratch slice.

// drainTopic reads every record currently in the topic via a standalone
// consumer, in poll order.
func drainTopic(t *testing.T, b *Broker, topic string, want int) []Record {
	t.Helper()
	c, err := NewConsumer(b, topic)
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer c.Close()
	var out []Record
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < want && time.Now().Before(deadline) {
		recs, err := c.TryPollInto(nil, want)
		if err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		out = append(out, recs...)
	}
	if len(out) != want {
		t.Fatalf("drained %d records, want %d", len(out), want)
	}
	return out
}

// TestSendBatchMatchesPerRecordSends sends the same keyed, watermarked
// stream through SendBatch on one broker and per-record SendWatermarked on
// another, then checks the delivered streams are identical per key:
// same partition assignment, same order, same watermark on every record.
func TestSendBatchMatchesPerRecordSends(t *testing.T) {
	const parts, n = 4, 64
	mkRecs := func() []Record {
		recs := make([]Record, n)
		for i := range recs {
			key := fmt.Sprintf("src-%d", i%5)
			recs[i] = Record{
				Key:   []byte(key),
				Value: []byte(fmt.Sprintf("v-%03d", i)),
				Watermark: Watermark{
					From: key,
					At:   time.Unix(0, int64(i)*int64(time.Millisecond)),
				},
			}
		}
		return recs
	}

	batched := NewBroker()
	newTestTopic(t, batched, "t", parts)
	if err := NewProducer(batched).SendBatch("t", mkRecs()); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}

	single := NewBroker()
	newTestTopic(t, single, "t", parts)
	sp := NewProducer(single)
	for _, rec := range mkRecs() {
		if err := sp.SendBatch("t", []Record{{Key: rec.Key, Value: rec.Value, Watermark: rec.Watermark}}); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	}

	perKey := func(recs []Record) map[string][]Record {
		m := make(map[string][]Record)
		for _, r := range recs {
			m[string(r.Key)] = append(m[string(r.Key)], r)
		}
		return m
	}
	got := perKey(drainTopic(t, batched, "t", n))
	want := perKey(drainTopic(t, single, "t", n))
	if len(got) != len(want) {
		t.Fatalf("batched delivered %d keys, per-record %d", len(got), len(want))
	}
	for key, ws := range want {
		gs := got[key]
		if len(gs) != len(ws) {
			t.Fatalf("key %s: batched %d records, per-record %d", key, len(gs), len(ws))
		}
		for i := range ws {
			if !bytes.Equal(gs[i].Value, ws[i].Value) {
				t.Fatalf("key %s record %d: value %q vs %q — per-key order broken", key, i, gs[i].Value, ws[i].Value)
			}
			if gs[i].Partition != ws[i].Partition {
				t.Fatalf("key %s record %d: partition %d vs %d — batched pick diverged from key hash", key, i, gs[i].Partition, ws[i].Partition)
			}
			if gs[i].Watermark != ws[i].Watermark {
				t.Fatalf("key %s record %d: watermark %+v vs %+v — piggyback lost in batch append", key, i, gs[i].Watermark, ws[i].Watermark)
			}
		}
	}
}

// TestSendBatchWatermarkFoldEquivalence checks the property event-time
// consumers depend on: folding the watermarks off a batched delivery (take
// the per-chain max, then the cross-chain min) yields the same low watermark
// as folding the per-record delivery. This is what makes batching invisible
// to the watermark ladder.
func TestSendBatchWatermarkFoldEquivalence(t *testing.T) {
	const parts = 2
	recs := []Record{
		{Key: []byte("a"), Value: []byte("1"), Watermark: Watermark{From: "a", At: time.Unix(10, 0)}},
		{Key: []byte("b"), Value: []byte("2"), Watermark: Watermark{From: "b", At: time.Unix(5, 0)}},
		{Key: []byte("a"), Value: []byte("3"), Watermark: Watermark{From: "a", At: time.Unix(20, 0)}},
		{Key: []byte("b"), Value: []byte("4"), Watermark: Watermark{From: "b", At: time.Unix(15, 0)}},
		{Key: []byte("a"), Value: []byte("5"), Watermark: Watermark{From: "a", At: time.Unix(30, 0)}},
	}
	fold := func(delivered []Record) time.Time {
		perChain := make(map[string]time.Time)
		for _, r := range delivered {
			if r.Watermark.At.After(perChain[r.Watermark.From]) {
				perChain[r.Watermark.From] = r.Watermark.At
			}
		}
		var min time.Time
		for _, at := range perChain {
			if min.IsZero() || at.Before(min) {
				min = at
			}
		}
		return min
	}

	batched := NewBroker()
	newTestTopic(t, batched, "t", parts)
	if err := NewProducer(batched).SendBatch("t", append([]Record(nil), recs...)); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	single := NewBroker()
	newTestTopic(t, single, "t", parts)
	sp := NewProducer(single)
	for _, rec := range recs {
		if err := sp.SendBatch("t", []Record{{Key: rec.Key, Value: rec.Value, Watermark: rec.Watermark}}); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	}

	got := fold(drainTopic(t, batched, "t", len(recs)))
	want := fold(drainTopic(t, single, "t", len(recs)))
	if !got.Equal(want) {
		t.Fatalf("batched fold %v, per-record fold %v", got, want)
	}
	if !want.Equal(time.Unix(15, 0)) {
		t.Fatalf("fold = %v, want min-of-chain-maxes 15s", want)
	}
}

// TestSendBatchEmptyAndErrors pins the edges: an empty batch is a no-op, an
// unknown topic errors, and a closed broker surfaces ErrClosed without
// appending anything.
func TestSendBatchEmptyAndErrors(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	if err := p.SendBatch("t", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := p.SendBatch("t", []Record{}); err != nil {
		t.Fatalf("zero-length batch: %v", err)
	}
	if err := p.SendBatch("missing", []Record{{Value: []byte("x")}}); err == nil {
		t.Fatal("unknown topic accepted")
	}
	topic, _ := b.Topic("t")
	if hw := topic.HighWatermark(0); hw != 0 {
		t.Fatalf("no-op batches appended %d records", hw)
	}
	b.Close()
	if err := p.SendBatch("t", []Record{{Value: []byte("x")}}); err != ErrClosed {
		t.Fatalf("closed broker: err = %v, want ErrClosed", err)
	}
}

// TestSendBatchOversizedSpansPolls sends one batch far larger than the
// consumer's poll budget: every record must still arrive, in order, across
// successive polls, and a single batch append must wake a blocked consumer
// exactly like a single send would.
func TestSendBatchOversizedSpansPolls(t *testing.T) {
	const n, pollMax = 1000, 64
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	c, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c.Close()

	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: []byte("k"), Value: []byte(fmt.Sprintf("%04d", i))}
	}
	done := make(chan error, 1)
	go func() {
		time.Sleep(10 * time.Millisecond) // let the consumer block first
		done <- NewProducer(b).SendBatch("t", recs)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []Record
	scratch := make([]Record, 0, pollMax)
	for len(got) < n {
		out, err := c.PollInto(ctx, scratch[:0], pollMax)
		if err != nil {
			t.Fatalf("PollInto after %d records: %v", len(got), err)
		}
		if len(out) > pollMax {
			t.Fatalf("poll returned %d records over budget %d", len(out), pollMax)
		}
		got = append(got, out...)
		scratch = out
	}
	if err := <-done; err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	for i, r := range got {
		if want := fmt.Sprintf("%04d", i); string(r.Value) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Value, want)
		}
		if r.Offset != int64(i) {
			t.Fatalf("record %d at offset %d", i, r.Offset)
		}
	}
}

// TestPollIntoReusesScratch pins the allocation contract of the batched poll
// path: once the scratch slice has warmed up to the batch size, a
// produce/TryPollInto cycle performs no per-poll slice allocation (the
// records' Key/Value bytes are lent views of the partition's segments, not
// copies).
func TestPollIntoReusesScratch(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	c, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c.Close()

	const batch = 32
	recs := make([]Record, batch)
	value := []byte("payload")
	for i := range recs {
		recs[i] = Record{Key: []byte("k"), Value: value}
	}
	scratch := make([]Record, 0, batch)
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.SendBatch("t", recs); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		out, err := c.TryPollInto(scratch[:0], batch)
		if err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		if len(out) != batch {
			t.Fatalf("polled %d records, want %d", len(out), batch)
		}
		scratch = out
	})
	// The broker's own log growth amortizes to < 1 alloc/op; the poll side
	// itself must contribute zero.
	if allocs > 2 {
		t.Fatalf("produce+poll cycle allocates %.1f objects/op, want ~0 on the poll path", allocs)
	}
}

// TestTryPollIntoEmptyReturnsDst checks the no-data contract: the scratch
// slice comes back unextended (same length), so callers can distinguish
// "nothing ready" without a nil check.
func TestTryPollIntoEmptyReturnsDst(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 2)
	c, err := NewConsumer(b, "t")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer c.Close()
	scratch := make([]Record, 0, 8)
	out, err := c.TryPollInto(scratch, 8)
	if err != nil {
		t.Fatalf("TryPollInto: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty topic returned %d records", len(out))
	}
	if cap(out) != cap(scratch) {
		t.Fatalf("scratch slice replaced: cap %d vs %d", cap(out), cap(scratch))
	}
}

// TestGroupPollAllocatesNothing pins the group poll path at zero: the
// assignment snapshot is kept on the consumer and recomputed only when the
// group's fencing epoch moves, so neither a poll that finds records nor one
// that finds none touches the heap.
func TestGroupPollAllocatesNothing(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 4)
	p := NewProducer(b)
	c, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c.Close()

	const batch, runs = 32, 50
	recs := make([]Record, batch)
	for i := range recs {
		recs[i] = Record{Key: []byte{byte(i)}, Value: []byte("payload")}
	}
	for i := 0; i <= runs; i++ { // AllocsPerRun calls once to warm up
		if err := p.SendBatch("t", recs); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	}
	scratch := make([]Record, 0, batch)
	polled := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		out, err := c.TryPollInto(scratch[:0], batch)
		if err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		polled += len(out)
	}); allocs != 0 {
		t.Fatalf("a group poll that finds records allocates %.0f objects, want 0", allocs)
	}
	if polled != (runs+1)*batch {
		t.Fatalf("polled %d records, want %d", polled, (runs+1)*batch)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if out, _ := c.TryPollInto(scratch[:0], batch); len(out) != 0 {
			t.Fatalf("drained topic returned %d records", len(out))
		}
	}); allocs != 0 {
		t.Fatalf("a group poll that finds nothing allocates %.0f objects, want 0", allocs)
	}

	// A rebalance moves the epoch: the next poll re-reads the assignment.
	c2, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c2.Close()
	if _, err := c.TryPollInto(scratch[:0], batch); err != nil {
		t.Fatalf("TryPollInto: %v", err)
	}
	if got, want := c.owned, c.Assignment(); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 2 {
		t.Fatalf("after a join the poll snapshot is %v, assignment %v", got, want)
	}
}
