// Package mq is an in-memory, partitioned, offset-based publish/subscribe
// broker — the substrate the ApproxIoT prototype obtained from Apache Kafka
// [15]. It models the parts of Kafka the paper's pipeline actually uses:
//
//   - named topics backed by append-only partition logs with monotonically
//     increasing offsets,
//   - producers with key-hash or round-robin partitioning,
//   - consumer groups whose members split a topic's partitions and track
//     committed offsets, rebalancing as members join and leave,
//   - blocking polls with context cancellation, and
//   - partition logs that own their bytes — an append copies each record
//     into segments recycled through a broker-wide free list — and free a
//     segment once nothing can read it again, keeping a bounded replay
//     window of consumed records, so long runs do not grow without bound.
//
// Edge-computing layers are connected by pre-defined topics exactly as in
// the paper's Figure 4: each layer's sampling processors consume the topic
// below them and produce into the topic above.
package mq

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by broker operations.
var (
	ErrTopicExists   = errors.New("mq: topic already exists")
	ErrUnknownTopic  = errors.New("mq: unknown topic")
	ErrClosed        = errors.New("mq: closed")
	ErrNoPartitions  = errors.New("mq: partition count must be positive")
	ErrOutOfRange    = errors.New("mq: offset out of range")
	ErrNotSubscribed = errors.New("mq: consumer has no subscription")
)

// Broker owns a set of topics. All methods are safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*Topic
	closed bool
	pool   segPool // the free segments every topic's partitions draw from
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: make(map[string]*Topic)}
}

// CreateTopic creates a topic with the given number of partitions.
func (b *Broker) CreateTopic(name string, partitions int, opts ...TopicOption) (*Topic, error) {
	if partitions <= 0 {
		return nil, ErrNoPartitions
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	t := newTopic(name, partitions, &b.pool, opts...)
	b.topics[name] = t
	return t, nil
}

// Topic looks up a topic by name.
func (b *Broker) Topic(name string) (*Topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// Topics returns the names of all topics.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.topics))
	for name := range b.topics {
		names = append(names, name)
	}
	return names
}

// DeleteTopic removes a topic: its partitions are discarded and blocked
// consumers wake with ErrClosed.
func (b *Broker) DeleteTopic(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	t.close()
	delete(b.topics, name)
	return nil
}

// Close shuts the broker down: subsequent CreateTopic calls fail and all
// blocked polls are woken with ErrClosed.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, t := range b.topics {
		t.close()
	}
}
