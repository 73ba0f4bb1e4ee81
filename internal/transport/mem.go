package transport

import (
	"errors"
	"fmt"

	"github.com/approxiot/approxiot/internal/mq"
)

// Mem is the in-memory bus backend: a zero-adapter wrapper over the mq
// broker. Producers and consumers it hands out ARE the mq types, so the
// semantics every other backend is conformance-tested against are the mq
// package's own — this backend cannot drift from the specification because
// it is the specification.
type Mem struct {
	b     *mq.Broker
	owned bool
}

var _ Bus = (*Mem)(nil)

// NewMem returns a bus backed by a fresh in-memory broker owned by the
// handle: Close shuts the broker down.
func NewMem() *Mem {
	return &Mem{b: mq.NewBroker(), owned: true}
}

// WrapBroker returns a bus view over an existing broker. The handle does
// not own the broker — Close is a no-op and shutdown stays with whoever
// created it. This is the bridge for callers (tests, the TCP daemon) that
// drive the broker directly and hand the bus view to the dataflow layers.
func WrapBroker(b *mq.Broker) *Mem {
	return &Mem{b: b}
}

// Broker exposes the underlying mq broker for callers that need the full
// concrete surface (topic introspection, DeleteTopic, direct appends in
// tests). Backend-portable code must not use it.
func (m *Mem) Broker() *mq.Broker { return m.b }

// CreateTopic implements Bus. Re-creating an existing topic with the same
// partition count succeeds without touching the topic (its retention is
// whatever the first creation set); a partition-count mismatch is an error.
func (m *Mem) CreateTopic(name string, partitions, retain int) error {
	var opts []mq.TopicOption
	if retain > 0 {
		opts = append(opts, mq.WithRetention(retain))
	}
	_, err := m.b.CreateTopic(name, partitions, opts...)
	if errors.Is(err, mq.ErrTopicExists) {
		t, terr := m.b.Topic(name)
		if terr == nil && t.Partitions() == partitions {
			return nil
		}
		if terr == nil {
			return fmt.Errorf("transport: topic %q exists with %d partitions, want %d", name, t.Partitions(), partitions)
		}
	}
	return err
}

// TopicPartitions implements Bus.
func (m *Mem) TopicPartitions(name string) (int, error) {
	t, err := m.b.Topic(name)
	if err != nil {
		return 0, err
	}
	return t.Partitions(), nil
}

// NewProducer implements Bus.
func (m *Mem) NewProducer() Producer {
	return mq.NewProducer(m.b)
}

// NewConsumer implements Bus.
func (m *Mem) NewConsumer(topic string) (Consumer, error) {
	return mq.NewConsumer(m.b, topic)
}

// NewGroupConsumer implements Bus.
func (m *Mem) NewGroupConsumer(topic, group string) (Consumer, error) {
	return mq.NewGroupConsumer(m.b, topic, group)
}

// GroupLag implements Bus.
func (m *Mem) GroupLag(topic, group string) (int64, error) {
	t, err := m.b.Topic(topic)
	if err != nil {
		return 0, err
	}
	return t.GroupLag(group)
}

// GroupCommitted implements Bus.
func (m *Mem) GroupCommitted(topic, group string) ([]int64, error) {
	t, err := m.b.Topic(topic)
	if err != nil {
		return nil, err
	}
	return t.GroupCommitted(group)
}

// FetchInto implements Bus: the records are copied out of the log, so they
// own their Key/Value bytes. The partition is bounds-checked here because
// this path now serves remote callers through the TCP daemon: a malformed
// request must come back as an error, not a panic in the broker.
func (m *Mem) FetchInto(dst []Record, topic string, partition int, from int64, max int) ([]Record, error) {
	t, err := m.b.Topic(topic)
	if err != nil {
		return dst, err
	}
	if partition < 0 || partition >= t.Partitions() {
		return dst, fmt.Errorf("%w: partition %d of %d", mq.ErrOutOfRange, partition, t.Partitions())
	}
	return t.FetchInto(dst, partition, from, max)
}

// Close implements Bus: an owned broker (NewMem) is shut down, waking every
// blocked poll with mq.ErrClosed; a wrapped broker (WrapBroker) is left to
// its owner.
func (m *Mem) Close() error {
	if m.owned {
		m.b.Close()
	}
	return nil
}
