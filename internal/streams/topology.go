// Package streams is a miniature stream-processing library over the mq
// broker, standing in for the Kafka Streams library [16] the ApproxIoT
// prototype used. It provides the two APIs the paper's implementation
// needed:
//
//   - a topology builder (the "High-Level Streams DSL"): a source that
//     consumes a topic, processors wired into a DAG, and sinks that produce
//     into topics; and
//   - a low-level Processor contract (the "Low-Level Processor API") with
//     Forward for emitting downstream and punctuation for time-driven work
//     — which is how the sampling module re-asserts liveness and ages out
//     silent sources between records.
//
// One Runtime corresponds to one logical node of the edge tree: a single
// pump goroutine polls the node's source, pushes records through the DAG,
// and fires punctuations when their deadlines pass, mirroring a Kafka
// Streams task thread. The pump does work per record and per deadline,
// never per clock tick: with nothing to fetch it parks until records
// arrive, a Sync runs, or the earliest processor deadline passes.
package streams

import (
	"errors"
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
)

// Message is the unit that flows through a topology. The Key and Value of a
// message a source delivers are lent by the bus (the pump polls with
// TryPollInto; see the transport package's buffer-ownership rule): read-only,
// and valid until the Process or ProcessBatch call they arrived in returns.
// A processor that keeps them past that copies them.
type Message struct {
	Key   []byte
	Value []byte
	Ts    time.Time
	// Watermark is the piggybacked event-time low watermark of the
	// producing chain (zero = none). Sources copy it off the consumed
	// mq.Record; sinks piggyback it back onto the produced record, so
	// watermarks ride the data path across every hop.
	Watermark mq.Watermark
	// Partition is the input-topic partition the source consumed this
	// message from (0 for messages that never crossed the broker). Ordering
	// guarantees are per partition, so processors that act on cross-record
	// promises — an end-of-stream watermark above all — need to know which
	// FIFO lane a message rode in on.
	Partition int
}

// Processor is the low-level operator contract. Implementations are owned
// by a single Runtime pump goroutine: Process and punctuation callbacks are
// never invoked concurrently.
type Processor interface {
	// Init is called once before any message, with the node's context.
	Init(ctx ProcessorContext) error
	// Process handles one message. Returning an error stops the runtime.
	Process(msg Message) error
	// Close is called once during shutdown, after the last message.
	Close() error
}

// BatchProcessor is an optional extension of Processor: an operator that can
// take a whole polled batch in one call. When a runtime's source fetches N
// records it hands BatchProcessor children the full []Message slice — one
// dispatch, one downstream flush — instead of N Process calls. The batch
// slice is only valid for the duration of the call and must not be retained.
// Semantics must be identical to processing the messages one at a time in
// order; batching is a transport-level amortization, never a behavioral one.
type BatchProcessor interface {
	Processor
	// ProcessBatch handles a polled batch of messages, in order. Returning
	// an error stops the runtime.
	ProcessBatch(msgs []Message) error
}

// Punctuator is an optional Processor extension for time-driven work: work a
// processor owes without new input, such as a keepalive or an idle-source
// timeout. The pump asks every Punctuator for its Deadline at the end of each
// cycle and arms one timer at the earliest; the first cycle that starts at or
// after a processor's deadline calls its Punctuate. A zero Deadline means
// none: only a record (or a Sync) can give the processor work, and a pump
// whose processors all say so parks without a timer. Punctuate must move the
// deadline past now, or the pump spins on it. When the source topic closes,
// every Punctuator is punctuated once more, due or not (end-of-stream flush).
type Punctuator interface {
	Processor
	// Deadline returns the next instant the processor must run without new
	// input, read at clock reading now; zero for none.
	Deadline(now time.Time) time.Time
	// Punctuate runs the processor's time-driven work at clock reading now.
	Punctuate(now time.Time)
}

// ProcessorContext is the API a Processor uses to interact with its node.
type ProcessorContext interface {
	// Forward emits a message to every downstream child of this node.
	Forward(msg Message)
	// ForwardBatch emits a batch of messages, in order, to every downstream
	// child of this node. Sink children produce the whole batch with a
	// single broker append (one lock acquisition, one consumer wakeup);
	// BatchProcessor children receive the slice in one call. The slice is
	// not retained — callers may reuse it after ForwardBatch returns —
	// but the Key/Value bytes may be retained by the broker (see the codec
	// buffer-ownership rule).
	ForwardBatch(msgs []Message)
	// NodeName returns the topology name of this processor.
	NodeName() string
	// Now returns the runtime's current time.
	Now() time.Time
}

// ProcessorFunc adapts a function to the Processor interface for stateless
// operators.
type ProcessorFunc func(ctx ProcessorContext, msg Message) error

type funcProcessor struct {
	fn  ProcessorFunc
	ctx ProcessorContext
}

// NewProcessorFunc wraps fn as a Processor.
func NewProcessorFunc(fn ProcessorFunc) Processor { return &funcProcessor{fn: fn} }

func (p *funcProcessor) Init(ctx ProcessorContext) error { p.ctx = ctx; return nil }
func (p *funcProcessor) Process(msg Message) error       { return p.fn(p.ctx, msg) }
func (p *funcProcessor) Close() error                    { return nil }

// Errors returned by the topology builder.
var (
	ErrDuplicateNode = errors.New("streams: duplicate node name")
	ErrUnknownParent = errors.New("streams: unknown parent node")
	ErrEmptyTopology = errors.New("streams: topology has no sources")
	ErrNoParents     = errors.New("streams: node needs at least one parent")

	// errSecondSource rejects a topology with more than one source: a
	// runtime's pump parks on its one source consumer's wake channel.
	errSecondSource = errors.New("streams: a topology has exactly one source")
)

type nodeKind int

const (
	kindSource nodeKind = iota + 1
	kindProcessor
	kindSink
)

type node struct {
	name     string
	kind     nodeKind
	topic    string // sources and sinks
	supplier func() Processor
	parents  []string
	children []string
}

// Topology is an immutable processing DAG built with NewTopology: one source
// feeding processors and sinks. Parents must be declared before children,
// which structurally rules out cycles.
type Topology struct {
	nodes  map[string]*node
	order  []string // declaration order (a topological order)
	source string   // the source node's name
}

// TopologyBuilder accumulates nodes; Build validates and freezes them.
type TopologyBuilder struct {
	t   *Topology
	err error
}

// NewTopology returns an empty builder.
func NewTopology() *TopologyBuilder {
	return &TopologyBuilder{t: &Topology{nodes: make(map[string]*node)}}
}

func (b *TopologyBuilder) add(n *node) *TopologyBuilder {
	if b.err != nil {
		return b
	}
	if _, ok := b.t.nodes[n.name]; ok {
		b.err = fmt.Errorf("%w: %q", ErrDuplicateNode, n.name)
		return b
	}
	if n.kind == kindSource && b.t.source != "" {
		b.err = fmt.Errorf("%w: %q after %q", errSecondSource, n.name, b.t.source)
		return b
	}
	if n.kind != kindSource && len(n.parents) == 0 {
		b.err = fmt.Errorf("%w: %q", ErrNoParents, n.name)
		return b
	}
	for _, p := range n.parents {
		parent, ok := b.t.nodes[p]
		if !ok {
			b.err = fmt.Errorf("%w: %q (child %q)", ErrUnknownParent, p, n.name)
			return b
		}
		parent.children = append(parent.children, n.name)
	}
	b.t.nodes[n.name] = n
	b.t.order = append(b.t.order, n.name)
	if n.kind == kindSource {
		b.t.source = n.name
	}
	return b
}

// Source adds the node that consumes topic and forwards each record
// downstream. A topology has one; Build rejects a second.
func (b *TopologyBuilder) Source(name, topic string) *TopologyBuilder {
	return b.add(&node{name: name, kind: kindSource, topic: topic})
}

// Processor adds an operator node fed by the named parents. supplier is
// invoked once per Runtime to create the instance.
func (b *TopologyBuilder) Processor(name string, supplier func() Processor, parents ...string) *TopologyBuilder {
	return b.add(&node{name: name, kind: kindProcessor, supplier: supplier, parents: parents})
}

// Sink adds a node that produces every received message into topic.
func (b *TopologyBuilder) Sink(name, topic string, parents ...string) *TopologyBuilder {
	return b.add(&node{name: name, kind: kindSink, topic: topic, parents: parents})
}

// Build validates the topology.
func (b *TopologyBuilder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.t.source == "" {
		return nil, ErrEmptyTopology
	}
	return b.t, nil
}
