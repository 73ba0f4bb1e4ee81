package mq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestTopic(t *testing.T, b *Broker, name string, parts int, opts ...TopicOption) *Topic {
	t.Helper()
	topic, err := b.CreateTopic(name, parts, opts...)
	if err != nil {
		t.Fatalf("CreateTopic(%q): %v", name, err)
	}
	return topic
}

func TestCreateTopicValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.CreateTopic("t", 0); !errors.Is(err, ErrNoPartitions) {
		t.Fatalf("zero partitions: err = %v, want ErrNoPartitions", err)
	}
	newTestTopic(t, b, "t", 2)
	if _, err := b.CreateTopic("t", 2); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate: err = %v, want ErrTopicExists", err)
	}
	if _, err := b.Topic("missing"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("missing: err = %v, want ErrUnknownTopic", err)
	}
}

// send appends one record through SendBatch and returns the partition it
// landed on.
func send(p *Producer, topic string, key, value []byte) (partition int, err error) {
	recs := []Record{{Key: key, Value: value}}
	err = p.SendBatch(topic, recs)
	return recs[0].Partition, err
}

func TestProduceAssignsMonotonicOffsets(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	c, _ := NewConsumer(b, "t")
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := send(p, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
		recs, err := c.TryPollInto(nil, 2)
		if err != nil || len(recs) != 1 {
			t.Fatalf("TryPollInto = %d records, %v; want the one just sent", len(recs), err)
		}
		if off := recs[0].Offset; off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
}

func TestKeyHashingIsSticky(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 4)
	p := NewProducer(b)
	first, err := send(p, "t", []byte("source-7"), []byte("a"))
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	for i := 0; i < 20; i++ {
		part, err := send(p, "t", []byte("source-7"), []byte("b"))
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		if part != first {
			t.Fatalf("same key landed on partitions %d and %d", first, part)
		}
	}
}

func TestEmptyKeyRoundRobins(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 4)
	p := NewProducer(b)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		part, err := send(p, "t", nil, []byte("x"))
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		seen[part] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round robin used %d/4 partitions", len(seen))
	}
}

func TestSendToValidatesPartition(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 2)
	p := NewProducer(b)
	if err := p.SendTo("t", 5, []Record{{Value: []byte("x")}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := p.SendTo("t", -1, []Record{{Value: []byte("x")}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := p.SendTo("t", 2, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("an empty batch to partition 2 of 2: err = %v, want ErrOutOfRange", err)
	}
	// A valid directed batch lands, in order, on the partition it names.
	recs := []Record{{Key: []byte("a"), Value: []byte("x")}, {Key: []byte("b"), Value: []byte("y")}}
	if err := p.SendTo("t", 1, recs); err != nil {
		t.Fatalf("SendTo(1): %v", err)
	}
	tp, _ := b.Topic("t")
	got, err := tp.Fetch(1, 0, 4)
	if err != nil || len(got) != 2 || string(got[0].Value) != "x" || string(got[1].Value) != "y" || tp.HighWatermark(0) != 0 {
		t.Fatalf("partition 1 holds %v (%v), partition 0 %d records; want x, y and none", got, err, tp.HighWatermark(0))
	}
}

func TestStandaloneConsumerReadsEverything(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 3)
	p := NewProducer(b)
	for i := 0; i < 30; i++ {
		if _, err := send(p, "t", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	c, err := NewConsumer(b, "t")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer c.Close()
	got := 0
	for got < 30 {
		recs, err := c.PollInto(context.Background(), nil, 10)
		if err != nil {
			t.Fatalf("PollInto: %v", err)
		}
		got += len(recs)
	}
	if got != 30 {
		t.Fatalf("consumed %d records, want 30", got)
	}
	if c.Lag() != 0 {
		t.Fatalf("Lag = %d after draining, want 0", c.Lag())
	}
}

func TestPollBlocksUntilProduce(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	c, err := NewConsumer(b, "t")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer c.Close()

	done := make(chan []Record, 1)
	go func() {
		recs, err := c.PollInto(context.Background(), nil, 1)
		if err != nil {
			t.Errorf("PollInto: %v", err)
		}
		done <- recs
	}()

	select {
	case <-done:
		t.Fatal("PollInto returned before any record was produced")
	case <-time.After(20 * time.Millisecond):
	}

	if _, err := send(NewProducer(b), "t", nil, []byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Value) != "hello" {
			t.Fatalf("got %v, want the produced record", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PollInto never woke after produce")
	}
}

func TestPollHonorsContextCancellation(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	c, _ := NewConsumer(b, "t")
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.PollInto(ctx, nil, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPollWakesOnBrokerClose(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	c, _ := NewConsumer(b, "t")
	errs := make(chan error, 1)
	go func() {
		_, err := c.PollInto(context.Background(), nil, 1)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PollInto never woke on broker close")
	}
}

func TestTryPollNonBlocking(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	c, _ := NewConsumer(b, "t")
	defer c.Close()
	recs, err := c.TryPollInto(nil, 5)
	if err != nil || recs != nil {
		t.Fatalf("TryPollInto on empty = (%v, %v), want (nil, nil)", recs, err)
	}
}

func TestGroupSplitsPartitions(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 4)
	c1, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c1.Close()
	c2, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c2.Close()

	a1, a2 := c1.Assignment(), c2.Assignment()
	if len(a1)+len(a2) != 4 {
		t.Fatalf("assignments %v + %v do not cover 4 partitions", a1, a2)
	}
	overlap := map[int]bool{}
	for _, p := range a1 {
		overlap[p] = true
	}
	for _, p := range a2 {
		if overlap[p] {
			t.Fatalf("partition %d assigned to both members", p)
		}
	}
}

func TestGroupConsumesEachRecordOnce(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 4)
	p := NewProducer(b)
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := send(p, "t", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}

	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	consume := func(c *Consumer) {
		defer wg.Done()
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			recs, err := c.PollInto(ctx, nil, 16)
			cancel()
			if err != nil {
				return // timeout: drained
			}
			mu.Lock()
			for _, r := range recs {
				seen[fmt.Sprintf("%d/%d", r.Partition, r.Offset)]++
			}
			mu.Unlock()
		}
	}
	c1, _ := NewGroupConsumer(b, "t", "g")
	c2, _ := NewGroupConsumer(b, "t", "g")
	defer c1.Close()
	defer c2.Close()
	wg.Add(2)
	go consume(c1)
	go consume(c2)
	wg.Wait()

	if len(seen) != total {
		t.Fatalf("consumed %d distinct records, want %d", len(seen), total)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("record %s consumed %d times", key, n)
		}
	}
}

func TestGroupRebalanceOnLeave(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 4)
	c1, _ := NewGroupConsumer(b, "t", "g")
	c2, _ := NewGroupConsumer(b, "t", "g")
	c2.Close()
	if got := len(c1.Assignment()); got != 4 {
		t.Fatalf("after peer left, assignment = %d partitions, want 4", got)
	}
	c1.Close()
}

func TestGroupOffsetsSurviveMemberChurn(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	for i := 0; i < 5; i++ {
		send(p, "t", nil, []byte{byte(i)})
	}
	c1, _ := NewGroupConsumer(b, "t", "g")
	recs, err := c1.PollInto(context.Background(), nil, 3)
	if err != nil || len(recs) != 3 {
		t.Fatalf("first poll = (%d recs, %v)", len(recs), err)
	}
	c1.Close()

	c2, _ := NewGroupConsumer(b, "t", "g")
	defer c2.Close()
	recs, err = c2.PollInto(context.Background(), nil, 10)
	if err != nil {
		t.Fatalf("second poll: %v", err)
	}
	if len(recs) != 2 || recs[0].Value[0] != 3 {
		t.Fatalf("new member resumed at wrong offset: got %d recs starting %v", len(recs), recs[0].Value)
	}
}

func TestSeekStandaloneOnly(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	for i := 0; i < 5; i++ {
		send(p, "t", nil, []byte{byte(i)})
	}
	c, _ := NewConsumer(b, "t")
	defer c.Close()
	if err := c.Seek(0, 3); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	recs, _ := c.TryPollInto(nil, 10)
	if len(recs) != 2 || recs[0].Offset != 3 {
		t.Fatalf("after Seek(3): %v", recs)
	}

	gc, _ := NewGroupConsumer(b, "t", "g")
	defer gc.Close()
	if err := gc.Seek(0, 0); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("group Seek err = %v, want ErrNotSubscribed", err)
	}
}

func TestRetentionCompactsConsumedPrefix(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1, WithRetention(10))
	p := NewProducer(b)
	c, _ := NewGroupConsumer(b, "t", "g")
	defer c.Close()

	for i := 0; i < 500; i++ {
		if _, err := send(p, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
		if i%50 == 49 {
			for c.Lag() > 0 {
				if _, err := c.PollInto(context.Background(), nil, 64); err != nil {
					t.Fatalf("PollInto: %v", err)
				}
			}
		}
	}
	topic, _ := b.Topic("t")
	if lw := topic.LowWatermark(0); lw == 0 {
		t.Fatal("retention never compacted the log")
	}
	if hw := topic.HighWatermark(0); hw != 500 {
		t.Fatalf("high watermark = %d, want 500", hw)
	}
}

// A retained partition that fills allocates its full log once: it grows by
// append while it holds at most smallLog records, then moves once to the
// 2 × retain records compaction keeps it under and keeps that block. A lane
// that carries a few records stays small, one nothing appends to allocates
// nothing, and a topic without retention grows its logs by append as before.
func TestRetainedLogAllocatedOnce(t *testing.T) {
	const retain = 256
	b := NewBroker()
	topic := newTestTopic(t, b, "t", 3, WithRetention(retain))
	plain := newTestTopic(t, b, "plain", 1)
	p := NewProducer(b)
	log := func(tp *Topic, part int) []Record {
		tp.parts[part].mu.Lock()
		defer tp.parts[part].mu.Unlock()
		return tp.parts[part].records
	}
	var full *Record // the full-size block, once the log has moved there
	for i := 1; i <= 2*retain; i++ {
		var err error
		if i%2 == 0 {
			err = p.SendTo("t", 0, []Record{{Value: []byte{byte(i)}}})
		} else {
			err = topic.appendBatch([]Record{{Partition: 0, Value: []byte{byte(i)}}})
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs := log(topic, 0)
		switch {
		case cap(recs) == 2*retain && full == nil:
			full = &recs[:1][0]
		case cap(recs) == 2*retain && &recs[:1][0] != full:
			t.Fatalf("a log of %d records moved again after reaching its full size", i)
		case cap(recs) != 2*retain && (full != nil || cap(recs) > 2*smallLog):
			t.Fatalf("a log of %d records has capacity %d: grown step by step", i, cap(recs))
		}
	}
	if full == nil {
		t.Fatalf("a log of %d records never moved to its full size %d", 2*retain, 2*retain)
	}
	for i := 0; i < 3; i++ {
		if err := p.SendTo("t", 1, []Record{{Value: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if recs := log(topic, 1); cap(recs) >= smallLog {
		t.Fatalf("a lane of 3 records holds a log of capacity %d", cap(recs))
	}
	if recs := log(topic, 2); recs != nil {
		t.Fatalf("a partition nothing appended to holds a log of capacity %d", cap(recs))
	}
	var ref []Record
	for i := 0; i <= smallLog; i++ {
		if err := p.SendTo("plain", 0, []Record{{Value: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, Record{})
	}
	if recs := log(plain, 0); cap(recs) != cap(ref) {
		t.Fatalf("an unretained log of %d records has capacity %d, want append's %d", len(recs), cap(recs), cap(ref))
	}
}

func TestFetchBelowLowWatermark(t *testing.T) {
	b := NewBroker()
	topic := newTestTopic(t, b, "t", 1, WithRetention(1))
	p := NewProducer(b)
	c, _ := NewGroupConsumer(b, "t", "g")
	for i := 0; i < 100; i++ {
		send(p, "t", nil, []byte{byte(i)})
		c.PollInto(context.Background(), nil, 64)
	}
	c.Close()
	if _, err := topic.Fetch(0, 0, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Fetch(0) after compaction: err = %v, want ErrOutOfRange", err)
	}
}

func TestConcurrentProducersAndGroup(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 8)
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := NewProducer(b)
			for j := 0; j < perProducer; j++ {
				if _, err := send(p, "t", []byte(fmt.Sprintf("%d-%d", id, j)), []byte("v")); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(i)
	}

	var consumed sync.Map
	var total int64
	var cwg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		c, err := NewGroupConsumer(b, "t", "g")
		if err != nil {
			t.Fatalf("NewGroupConsumer: %v", err)
		}
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			defer c.Close()
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				recs, err := c.PollInto(ctx, nil, 32)
				cancel()
				if err != nil {
					return
				}
				for _, r := range recs {
					consumed.Store(fmt.Sprintf("%d/%d", r.Partition, r.Offset), true)
				}
				mu.Lock()
				total += int64(len(recs))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cwg.Wait()

	distinct := 0
	consumed.Range(func(_, _ any) bool { distinct++; return true })
	if distinct != producers*perProducer {
		t.Fatalf("consumed %d distinct records, want %d", distinct, producers*perProducer)
	}
}

func TestProducerTimestampInjection(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	fixed := time.Date(2018, 7, 2, 12, 0, 0, 0, time.UTC)
	p := NewProducer(b, WithNow(func() time.Time { return fixed }))
	send(p, "t", nil, []byte("x"))
	topic, _ := b.Topic("t")
	recs, _ := topic.Fetch(0, 0, 1)
	if !recs[0].Ts.Equal(fixed) {
		t.Fatalf("Ts = %v, want %v", recs[0].Ts, fixed)
	}
}

func BenchmarkProduce(b *testing.B) {
	br := NewBroker()
	br.CreateTopic("t", 4, WithRetention(1024))
	p := NewProducer(br)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := send(p, "t", nil, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProduceConsume(b *testing.B) {
	br := NewBroker()
	br.CreateTopic("t", 1, WithRetention(4096))
	p := NewProducer(br)
	c, _ := NewGroupConsumer(br, "t", "g")
	defer c.Close()
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := send(p, "t", nil, val); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			for c.Lag() > 0 {
				if _, err := c.PollInto(context.Background(), nil, 64); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func TestMultiPartitionPerKeyOrdering(t *testing.T) {
	// Key-hash partitioning pins each key to one partition, so consuming a
	// multi-partition topic must observe every key's records in production
	// order even though records of different keys interleave arbitrarily.
	br := NewBroker()
	defer br.Close()
	newTestTopic(t, br, "t", 4)
	p := NewProducer(br)

	keys := []string{"src-a", "src-b", "src-c", "src-d", "src-e"}
	const perKey = 200
	for seq := 0; seq < perKey; seq++ {
		for _, k := range keys {
			if _, err := send(p, "t", []byte(k), []byte(fmt.Sprintf("%s:%d", k, seq))); err != nil {
				t.Fatal(err)
			}
		}
	}

	c, err := NewConsumer(br, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next := make(map[string]int, len(keys))
	total := 0
	for total < perKey*len(keys) {
		recs, err := c.PollInto(context.Background(), nil, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			k := string(rec.Key)
			var seq int
			fmt.Sscanf(string(rec.Value[len(k)+1:]), "%d", &seq)
			if seq != next[k] {
				t.Fatalf("key %s: got seq %d, want %d (out-of-order within key)", k, seq, next[k])
			}
			next[k]++
			total++
		}
	}
}

func TestGroupPerKeyOrderingAcrossMembers(t *testing.T) {
	// A consumer group over a multi-partition topic: each key lands in one
	// partition owned by one member, so per-key order survives the split
	// and no record is seen twice.
	br := NewBroker()
	defer br.Close()
	newTestTopic(t, br, "t", 4)
	p := NewProducer(br)

	var members []*Consumer
	for i := 0; i < 2; i++ {
		c, err := NewGroupConsumer(br, "t", "g")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		members = append(members, c)
	}

	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	const perKey = 100
	for seq := 0; seq < perKey; seq++ {
		for _, k := range keys {
			if _, err := send(p, "t", []byte(k), []byte(fmt.Sprintf("%d", seq))); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		mu    sync.Mutex
		next  = make(map[string]int, len(keys))
		total int
		wg    sync.WaitGroup
	)
	want := perKey * len(keys)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, m := range members {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				done := total >= want
				mu.Unlock()
				if done {
					return
				}
				recs, err := m.TryPollInto(nil, 64)
				if err != nil || ctx.Err() != nil {
					return
				}
				if len(recs) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				mu.Lock()
				for _, rec := range recs {
					k := string(rec.Key)
					var seq int
					fmt.Sscanf(string(rec.Value), "%d", &seq)
					if seq != next[k] {
						mu.Unlock()
						t.Errorf("key %s: got seq %d, want %d", k, seq, next[k])
						return
					}
					next[k]++
					total++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if total != want {
		t.Fatalf("consumed %d records, want %d", total, want)
	}
	for _, k := range keys {
		if next[k] != perKey {
			t.Fatalf("key %s: consumed %d, want %d", k, next[k], perKey)
		}
	}
}

// TestControlTopicFanout pins the broadcast shape the live control plane
// relies on: standalone consumers on a single-partition topic are
// independent — every one of them sees every record, in publish order,
// regardless of how many records it drains per poll — unlike group members,
// which split the stream. A "latest wins" drain (the control-plane read
// pattern) therefore converges every consumer to the same final record.
func TestControlTopicFanout(t *testing.T) {
	b := NewBroker()
	if _, err := b.CreateTopic("control", 1); err != nil {
		t.Fatal(err)
	}
	const consumers, records = 3, 17

	subs := make([]*Consumer, consumers)
	for i := range subs {
		c, err := NewConsumer(b, "control")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		subs[i] = c
	}

	p := NewProducer(b)
	for seq := 0; seq < records; seq++ {
		if _, err := send(p, "control", nil, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}

	for i, c := range subs {
		// Drain with a small max to force multiple polls; the latest
		// record must win and the full history must arrive in order.
		var seen []byte
		for {
			recs, err := c.TryPollInto(nil, 4)
			if err != nil {
				t.Fatalf("consumer %d: %v", i, err)
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				seen = append(seen, rec.Value[0])
			}
		}
		if len(seen) != records {
			t.Fatalf("consumer %d saw %d records, want all %d", i, len(seen), records)
		}
		for seq, v := range seen {
			if v != byte(seq) {
				t.Fatalf("consumer %d: position %d holds seq %d", i, seq, v)
			}
		}
		if latest := seen[len(seen)-1]; latest != records-1 {
			t.Fatalf("consumer %d: latest-wins drain landed on %d", i, latest)
		}
		if lag := c.Lag(); lag != 0 {
			t.Fatalf("consumer %d still lags %d after drain", i, lag)
		}
	}
}

// An append wakes only the consumers that can fetch it: a member's WaitChan
// stays open across an append to a partition another member owns, and the
// rebalance that hands it that partition's backlog fires it.
func TestWaitChanIsPerPartition(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 2)
	a, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Assignment(); len(got) != 1 {
		t.Fatalf("a owns %v, want one of two partitions", got)
	}
	foreign := 1 - a.Assignment()[0]
	wait := a.WaitChan()
	p := NewProducer(b)
	if err := p.SendTo("t", foreign, []Record{{Value: []byte("backlog")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wait:
		t.Fatalf("an append to partition %d, which a does not own, woke a", foreign)
	default:
	}
	other.Close()
	select {
	case <-wait:
	case <-time.After(5 * time.Second):
		t.Fatal("the rebalance that handed a the backlog did not wake it")
	}
	recs, err := a.TryPollInto(nil, 8)
	if err != nil || len(recs) != 1 || recs[0].Partition != foreign {
		t.Fatalf("after the wake a polled %v, %v; want the backlog record", recs, err)
	}
}

// A member's Rewind hands back only what nobody has claimed past: it moves
// the offset its own claim left, and refuses once another member claimed.
func TestRewindIsFencedByLastClaim(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 1)
	p := NewProducer(b)
	for i := 0; i < 4; i++ {
		if err := p.SendTo("t", 0, []Record{{Value: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := a.TryPollInto(nil, 4); err != nil || len(recs) != 4 {
		t.Fatalf("a polled %d records, %v", len(recs), err)
	}
	if a.Rewind(0, 1, 3) {
		t.Fatal("a rewind from an end the offset does not stand at succeeded")
	}
	if !a.Rewind(0, 2, 4) || a.Committed(0) != 2 {
		t.Fatalf("a's rewind of its own claim left committed at %d, want 2", a.Committed(0))
	}
	c, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if recs, err := c.TryPollInto(nil, 4); err != nil || len(recs) != 2 || recs[0].Value[0] != 2 {
		t.Fatalf("the next owner polled %v, %v; want records 2 and 3", recs, err)
	}
	if a.Rewind(0, 0, 4) {
		t.Fatal("a rewound past another member's claim")
	}
	s, err := NewConsumer(b, "t")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rewind(0, 0, 0) {
		t.Fatal("a standalone consumer rewound a group offset")
	}
}

// A member that armed on an assignment taken before a rebalance whose wake it
// missed still wakes for the partitions the rebalance handed it: the arm sees
// the group past the snapshot's epoch and watches every partition.
func TestWaitChanArmedOnStaleAssignment(t *testing.T) {
	b := NewBroker()
	newTestTopic(t, b, "t", 2)
	a, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	owned, epoch := a.assignmentNow()
	if len(owned) != 1 {
		t.Fatalf("a owns %v, want one of two partitions", owned)
	}
	other.Close() // the rebalance's wake: a is not armed yet
	wait := a.topic.arm(&a.w, owned, a.grp, epoch)
	if err := NewProducer(b).SendTo("t", 1-owned[0], []Record{{Value: []byte("moved")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wait:
	case <-time.After(5 * time.Second):
		t.Fatal("an append to a partition the rebalance handed a did not wake a member armed on its old assignment")
	}
}
