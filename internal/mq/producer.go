package mq

import (
	"bytes"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// Producer appends records to a broker's topics, choosing partitions by key
// hash (same key → same partition, preserving per-source ordering the way
// the paper's per-sub-stream topics do) or round-robin for empty keys.
type Producer struct {
	broker *Broker
	rr     atomic.Uint64
	nowFn  func() time.Time
}

// ProducerOption customizes a Producer.
type ProducerOption func(*Producer)

// WithNow overrides the timestamp source (used by simulated-time tests).
func WithNow(now func() time.Time) ProducerOption {
	return func(p *Producer) { p.nowFn = now }
}

// NewProducer returns a producer bound to broker.
func NewProducer(broker *Broker, opts ...ProducerOption) *Producer {
	p := &Producer{broker: broker, nowFn: time.Now}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// SendBatch appends a batch of records to the topic in one shot: one
// timestamp read, one partition pick per key run, and a single topic-lock
// acquisition (one consumer wakeup) for the whole batch — the amortization
// that closes the per-record hot-path gap. Each record's Key, Value, and
// Watermark are taken as given; Ts, Partition, and Offset are assigned by
// the send. Consecutive records with equal keys reuse the previous pick, and
// non-consecutive equal keys still hash identically, so per-key ordering is
// exactly what one SendBatch per record would produce. Empty-keyed records
// round-robin per run, not per record (the sticky-partitioner trade Kafka's
// batching producer makes). An empty batch is a no-op.
//
// recs is written in place (Ts/Partition assignment) but not retained, and
// the partition logs copy each record's Key and Value into their own
// segments: once the send returns, the caller may reuse both the slice and
// the bytes.
func (p *Producer) SendBatch(topic string, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	t, err := p.broker.Topic(topic)
	if err != nil {
		return err
	}
	now := p.nowFn()
	var lastKey []byte
	lastPart := -1
	for i := range recs {
		recs[i].Ts = now
		if lastPart >= 0 && bytes.Equal(recs[i].Key, lastKey) {
			recs[i].Partition = lastPart
			continue
		}
		recs[i].Partition = p.pick(t, recs[i].Key)
		lastKey, lastPart = recs[i].Key, recs[i].Partition
	}
	return t.appendBatch(recs)
}

// SendTo appends recs, in order, to one named partition of topic — the
// directed form of SendBatch, for topic-global records that must reach every
// partition's consumer, not just the one a key hashes to (the end-of-stream
// broadcast above all). Ts and Partition are written in place as SendBatch
// writes them; keys play no part. A partition outside the topic is
// ErrOutOfRange whether or not the batch is empty.
func (p *Producer) SendTo(topic string, partition int, recs []Record) error {
	t, err := p.broker.Topic(topic)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= t.Partitions() {
		return ErrOutOfRange
	}
	now := p.nowFn()
	for i := range recs {
		recs[i].Ts, recs[i].Partition = now, partition
	}
	return t.appendBatch(recs)
}

func (p *Producer) pick(t *Topic, key []byte) int {
	n := t.Partitions()
	if n == 1 {
		return 0
	}
	if len(key) == 0 {
		return int(p.rr.Add(1)-1) % n
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}
