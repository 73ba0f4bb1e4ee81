// Package streams is a miniature stream-processing library over the mq
// broker, standing in for the Kafka Streams library [16] the ApproxIoT
// prototype used. It provides the one pipe every node of the edge tree runs:
//
//   - a topology: a source that consumes a topic, one processor fed by it,
//     and at most one sink that produces the processor's output into a
//     topic; and
//   - a Processor contract (the "Low-Level Processor API") that takes each
//     polled batch in one call, with Forward/ForwardBatch for emitting to the
//     sink and punctuation for time-driven work — which is how the sampling
//     module re-asserts liveness and ages out silent sources between records.
//
// One Runtime corresponds to one member of a node of the edge tree: a single
// pump goroutine polls the source, hands each polled batch to the processor,
// and punctuates it when its deadline passes, mirroring a Kafka Streams task
// thread. The pump does work per batch and per deadline, never per clock
// tick: with nothing to fetch it parks until records arrive, a Sync runs, or
// the processor's deadline passes.
package streams

import (
	"errors"
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/transport"
)

// Message is the unit that flows through a topology: the bus record itself,
// so the pump hands what its source polled straight to the processor and
// the sink hands what the processor forwards straight to its send — no copy
// in either direction. A source delivers Key and Value lent by the bus (the
// pump polls with TryPollInto; see the transport package's buffer-ownership
// rule): read-only, and valid until the ProcessBatch call they arrived in
// returns. A processor that keeps them past that copies them. Watermark is
// the piggybacked event-time low watermark of the producing chain (zero =
// none) and rides the data path across every hop; Partition is the
// input-topic partition a delivered message was consumed from (0 for one
// that never crossed the bus) — ordering guarantees are per partition, so
// processors that act on cross-record promises, an end-of-stream watermark
// above all, need to know which FIFO lane it rode in on. Ts, Partition and
// Offset of a forwarded message are the send's to assign.
type Message = transport.Record

// Processor is the operator contract. An implementation is owned by a single
// Runtime pump goroutine: ProcessBatch and punctuation callbacks are never
// invoked concurrently.
type Processor interface {
	// Init is called once before any message, with the runtime's context.
	Init(ctx ProcessorContext) error
	// ProcessBatch handles a polled batch of messages, in order. The slice
	// is only valid for the duration of the call and must not be retained.
	// Returning an error stops the runtime.
	ProcessBatch(msgs []Message) error
	// Close is called once during shutdown, after the last message.
	Close() error
}

// Punctuator is an optional Processor extension for time-driven work: work a
// processor owes without new input, such as a keepalive or an idle-source
// timeout. The pump asks the processor for its Deadline at the end of each
// cycle and arms one timer at it; the first cycle that starts at or after the
// deadline calls Punctuate. A zero Deadline means none: only a record (or a
// Sync) can give the processor work, and the pump parks without a timer.
// Punctuate must move the deadline past now, or the pump spins on it. When
// the source topic closes, the processor is punctuated once more, due or not
// (end-of-stream flush).
type Punctuator interface {
	Processor
	// Deadline returns the next instant the processor must run without new
	// input, read at clock reading now; zero for none.
	Deadline(now time.Time) time.Time
	// Punctuate runs the processor's time-driven work at clock reading now.
	Punctuate(now time.Time)
}

// ProcessorContext is the API a Processor uses to interact with its runtime.
type ProcessorContext interface {
	// Forward emits a message to the sink, if the topology has one.
	Forward(msg Message)
	// ForwardBatch emits a batch of messages, in order, to the sink, if the
	// topology has one, with a single broker append (one lock acquisition,
	// one consumer wakeup): msgs is handed to the sink's SendBatch as it
	// stands, which may write each message's Ts and Partition in place. The
	// slice is not retained — callers may reuse it after ForwardBatch
	// returns — but the Key/Value bytes may be retained by the bus (see the
	// transport buffer-ownership rule).
	ForwardBatch(msgs []Message)
	// Now returns the runtime's current time.
	Now() time.Time
}

// ErrEmptyTopology is returned by Build for a topology with no source.
var ErrEmptyTopology = errors.New("streams: topology has no sources")

// errShape rejects every topology but the one a runtime pumps: one source,
// one processor whose single parent is the source, and at most one sink
// whose single parent is that processor.
var errShape = errors.New("streams: a topology is one source, one processor fed by it, and at most one sink fed by the processor")

// Topology is the immutable pipe built with NewTopology: a source, the
// processor it feeds, and an optional sink.
type Topology struct {
	source, topic string // the source node and the topic it consumes
	proc          string // the processor node
	supplier      func() Processor
	sinkTopic     string // "" when the topology has no sink
}

// TopologyBuilder accumulates the nodes; Build validates and freezes them.
type TopologyBuilder struct {
	t    Topology
	sink bool // a sink has been declared
	err  error
}

// NewTopology returns an empty builder.
func NewTopology() *TopologyBuilder { return &TopologyBuilder{} }

// reject records the first shape error, naming the offending node.
func (b *TopologyBuilder) reject(kind, name, why string) *TopologyBuilder {
	if b.err == nil {
		b.err = fmt.Errorf("%w: %s %q %s", errShape, kind, name, why)
	}
	return b
}

// onlyParent reports whether parents is exactly the one node want.
func onlyParent(parents []string, want string) bool {
	return want != "" && len(parents) == 1 && parents[0] == want
}

// Source adds the node that consumes topic and feeds the processor. A
// topology has one; Build rejects a second.
func (b *TopologyBuilder) Source(name, topic string) *TopologyBuilder {
	if b.t.source != "" {
		return b.reject("source", name, "follows source "+b.t.source)
	}
	b.t.source, b.t.topic = name, topic
	return b
}

// Processor adds the operator node, whose one parent must be the source.
// supplier is invoked once per Runtime to create the instance.
func (b *TopologyBuilder) Processor(name string, supplier func() Processor, parents ...string) *TopologyBuilder {
	switch {
	case b.t.proc != "":
		return b.reject("processor", name, "follows processor "+b.t.proc)
	case !onlyParent(parents, b.t.source):
		return b.reject("processor", name, "must have the source as its one parent")
	}
	b.t.proc, b.t.supplier = name, supplier
	return b
}

// Sink adds the node that produces every message the processor forwards
// into topic; its one parent must be the processor.
func (b *TopologyBuilder) Sink(name, topic string, parents ...string) *TopologyBuilder {
	switch {
	case b.sink:
		return b.reject("sink", name, "follows another sink")
	case !onlyParent(parents, b.t.proc):
		return b.reject("sink", name, "must have the processor as its one parent")
	}
	b.t.sinkTopic, b.sink = topic, true
	return b
}

// Build validates the topology.
func (b *TopologyBuilder) Build() (*Topology, error) {
	switch {
	case b.err != nil:
		return nil, b.err
	case b.t.source == "":
		return nil, ErrEmptyTopology
	case b.t.proc == "":
		return nil, fmt.Errorf("%w: source %q feeds no processor", errShape, b.t.source)
	}
	t := b.t
	return &t, nil
}
