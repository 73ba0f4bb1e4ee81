package mq

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// holdValue is record seq of producer from: a header naming both, then
// size-12 bytes that follow from it, so a reader can tell a record it was
// lent from bytes some later append wrote over it.
func holdValue(buf []byte, from, seq uint32, size int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf[:0], from)
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	for i := 12; i < size; i++ {
		buf = append(buf, byte(from*31+seq*7+uint32(i)))
	}
	return buf
}

// holdIntact reports what is wrong with a record holdValue wrote, "" if
// nothing.
func holdIntact(v []byte) string {
	if len(v) < 12 {
		return fmt.Sprintf("%d bytes", len(v))
	}
	from := binary.LittleEndian.Uint32(v)
	seq := binary.LittleEndian.Uint32(v[4:])
	if size := binary.LittleEndian.Uint32(v[8:]); int(size) != len(v) {
		return fmt.Sprintf("header says %d bytes, record has %d", size, len(v))
	}
	for i := 12; i < len(v); i++ {
		if v[i] != byte(from*31+seq*7+uint32(i)) {
			return fmt.Sprintf("record %d/%d: byte %d reads %#x", from, seq, i, v[i])
		}
	}
	return ""
}

// Every segment is freed only below its partition's hold: producers append
// records of every size — many to a segment, one to a segment, one past a
// segment's size — at the least retention, while two groups' members and a
// standalone consumer read them through lending polls with their own batch
// sizes and a replay reader fetches copies. Freed segments are scribbled on
// the way into the free list, so a reader that was lent bytes a compaction
// freed reads garbage: each reader checks every record it was lent when the
// poll returns and again just before its next poll, and every record must
// arrive once per group, in order per producer.
func TestSegmentsFreedOnlyBelowHold(t *testing.T) {
	PoisonFreedSegments.Store(true)
	defer PoisonFreedSegments.Store(false)
	b := NewBroker()
	defer b.Close()
	topic := newTestTopic(t, b, "t", 2, WithRetention(1))

	const producers, perProducer = 3, 600
	sizes := []int{12, 200, 3 << 10, 24 << 10, 70 << 10}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail string
	)
	failf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if fail == "" {
			fail = fmt.Sprintf(format, args...)
		}
	}
	// read polls c until it has seen want records, checking each lend twice.
	read := func(name string, c *Consumer, max int, want int, seen func(v []byte)) {
		defer wg.Done()
		defer c.Close()
		var recs []Record
		check := func(when string) bool {
			for _, r := range recs {
				if bad := holdIntact(r.Value); bad != "" {
					failf("%s, %s: %s at partition %d offset %d", name, when, bad, r.Partition, r.Offset)
					return false
				}
			}
			return true
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for got := 0; got < want; {
			var err error
			if recs, err = c.PollInto(ctx, recs[:0], max); err != nil {
				failf("%s: PollInto after %d of %d records: %v", name, got, want, err)
				return
			}
			if !check("as lent") {
				return
			}
			for _, r := range recs {
				seen(r.Value)
			}
			got += len(recs)
			runtime.Gosched() // let the producers append, and compact, while the lend is out
			if !check("before the next poll") {
				return
			}
		}
	}
	// order checks that each producer's records reach one reader in order.
	order := func(name string) func(v []byte) {
		next := make([]uint32, producers)
		return func(v []byte) {
			from, seq := binary.LittleEndian.Uint32(v), binary.LittleEndian.Uint32(v[4:])
			if seq != next[from] {
				failf("%s: producer %d's record %d arrived after %d", name, from, seq, next[from])
			}
			next[from] = seq + 1
		}
	}
	total := producers * perProducer
	for g, members := range []int{2, 1} {
		group := fmt.Sprintf("g%d", g)
		var gmu sync.Mutex
		count := 0
		for m := 0; m < members; m++ {
			c, err := NewGroupConsumer(b, "t", group)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			// Members split the partitions; all must end once the group has
			// read everything, so each polls until the group's total is in.
			go func(name string, c *Consumer, max int) {
				defer wg.Done()
				defer c.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				var recs []Record
				for {
					gmu.Lock()
					done := count == total
					gmu.Unlock()
					if done {
						return
					}
					poll, pcancel := context.WithTimeout(ctx, 50*time.Millisecond)
					var err error
					recs, err = c.PollInto(poll, recs[:0], max)
					pcancel()
					if err != nil && ctx.Err() != nil {
						failf("%s: %v", name, err)
						return
					}
					for _, r := range recs {
						if bad := holdIntact(r.Value); bad != "" {
							failf("%s, as lent: %s", name, bad)
							return
						}
					}
					runtime.Gosched()
					for _, r := range recs {
						if bad := holdIntact(r.Value); bad != "" {
							failf("%s, before the next poll: %s", name, bad)
							return
						}
					}
					gmu.Lock()
					count += len(recs)
					gmu.Unlock()
				}
			}(fmt.Sprintf("%s member %d", group, m), c, 1+5*m+3*g)
		}
	}
	s, err := NewConsumer(b, "t")
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go read("standalone", s, 7, total, order("standalone"))

	wg.Add(1)
	go func() { // replay reads copies of whatever is still retained
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for p := 0; p < 2; p++ {
				recs, err := topic.Fetch(p, topic.LowWatermark(p), 4)
				if err != nil {
					continue // compacted between the two reads
				}
				for _, r := range recs {
					if bad := holdIntact(r.Value); bad != "" {
						failf("replay: %s", bad)
						return
					}
				}
			}
			runtime.Gosched()
		}
	}()

	var pwg sync.WaitGroup
	for from := 0; from < producers; from++ {
		pwg.Add(1)
		go func(from int) {
			defer pwg.Done()
			p := NewProducer(b)
			key := []byte{byte(from)}
			var buf []byte
			for seq := 0; seq < perProducer; seq++ {
				buf = holdValue(buf, uint32(from), uint32(seq), sizes[(seq+from)%len(sizes)])
				if err := p.SendBatch("t", []Record{{Key: key, Value: buf}}); err != nil {
					failf("producer %d: %v", from, err)
					return
				}
				for i := range buf { // the sender's bytes are its own again
					buf[i] = 0xEE
				}
			}
		}(from)
	}
	pwg.Wait()
	wg.Wait()
	if fail != "" {
		t.Fatal(fail)
	}
}

// A log keeps only what can still be read: with one group keeping up, a
// partition at the least retention holds a couple of segments however many
// records pass through it, and the broker reuses the segments it freed
// instead of allocating new ones.
func TestLogKeepsOnlyWhatCanBeRead(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	topic := newTestTopic(t, b, "t", 1, WithRetention(1))
	c, err := NewGroupConsumer(b, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := NewProducer(b)
	value := make([]byte, 20<<10)
	var scratch []Record
	segments := func() (held, free int) {
		part := topic.parts[0]
		part.mu.Lock()
		held = len(part.segs)
		part.mu.Unlock()
		b.pool.mu.Lock()
		free = len(b.pool.free)
		b.pool.mu.Unlock()
		return held, free
	}
	for i := 0; i < 2000; i++ {
		if err := p.SendBatch("t", []Record{{Value: value}}); err != nil {
			t.Fatal(err)
		}
		if scratch, err = c.TryPollInto(scratch[:0], 8); err != nil || len(scratch) != 1 {
			t.Fatalf("poll %d: %d records, %v", i, len(scratch), err)
		}
		if held, free := segments(); held+free > 4 {
			t.Fatalf("after %d records of %d B read as they came: %d segments held and %d free, want 4 at most", i+1, len(value), held, free)
		}
	}
	if lw := topic.LowWatermark(0); lw < 1990 {
		t.Fatalf("low watermark %d after 2000 records read as they came", lw)
	}
}
