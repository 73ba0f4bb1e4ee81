// Package transport is the pluggable message-bus boundary of the live
// dataflow: the interface the tree's runtimes, sessions, and valves consume
// instead of the concrete in-memory broker. The paper's ApproxIoT prototype
// obtains this substrate from Apache Kafka [15]; this repo grew it first as
// the in-memory internal/mq broker (the reference and simulation backend,
// wrapped here by Mem) and now as a real network backend
// (internal/transport/tcp) so a deployment tree can run as separate OS
// processes on separate machines.
//
// The interface is carved from the mq API surface the tree actually calls —
// topics/partitions, producers with batched and partition-directed sends
// and piggybacked event-time watermarks, consumer groups with
// generation-fenced auto-commits, lending polls into caller-owned scratch
// with a wake channel, and group-lag probes for ingest backpressure —
// nothing more. The concrete *mq.Producer and *mq.Consumer satisfy Producer
// and Consumer structurally, so the in-memory backend is a zero-adapter
// wrapper and its semantics remain the executable specification every other
// backend's conformance run is held to (internal/transport/conformance).
//
// Buffer-ownership rule across the boundary — the broker owns what it
// keeps, and nobody else's bytes outlive the call that handed them over:
//
//   - Sent bytes. The Key and Value bytes handed to a producer send are the
//     sender's again the moment the send returns: the in-memory broker has
//     copied them into its partition's segments, a network client has
//     written them to the socket (and the daemon behind it has copied them
//     into its broker). So every sender encodes every flush into the same
//     block.
//   - Polled bytes. PollInto and TryPollInto — the consumer's two polls, both
//     into caller-owned scratch — lend them: Key and Value are valid until the
//     next PollInto or TryPollInto on the same consumer, and are read-only. A
//     caller that keeps a lent record past that point copies it. (The
//     in-memory backend lends views of its partition segments, which it holds
//     until that next poll and may reuse after it; a network client lends
//     views of the push frame the record arrived in, and reads the next push
//     into that frame once the poll after has freed it.) Bus.FetchInto, the
//     replay read, returns records that own their Key and Value.
package transport

import (
	"context"

	"github.com/approxiot/approxiot/internal/mq"
)

// Record is one message on the bus — the mq record, reused verbatim so the
// in-memory backend needs no adapter and every backend shares one
// codec-facing shape. Key/Value are opaque payload bytes; Watermark is
// the piggybacked event-time low watermark; Partition/Offset locate the
// record once appended.
type Record = mq.Record

// Watermark is the piggybacked event-time low watermark (see mq.Watermark
// for the From/At semantics and the keepalive convention). Backends carry
// it on every record, bit-for-bit: event-time correctness depends on
// watermarks never being reordered against their data.
type Watermark = mq.Watermark

// Producer appends records to the bus's topics. Both sends take a batch:
// each record's Key, Value, and Watermark are taken as given, Ts/Partition/
// Offset are assigned by the backend, and recs may be written in place but is
// not retained. Both are synchronous: when a send returns, the backend is
// done with the Key/Value bytes, and the caller may write them again (see
// the package buffer-ownership rule).
type Producer interface {
	// SendBatch appends a batch in one shot — the amortization the hot path
	// is built on. Partitions are chosen exactly as the in-memory broker
	// chooses them: key-hash for non-empty keys (same key → same partition,
	// preserving per-sub-stream order), round-robin otherwise, sticky per
	// consecutive-equal-key run.
	SendBatch(topic string, recs []Record) error
	// SendTo appends a batch, in order, to one named partition — the
	// topic-global broadcast form (end-of-stream above all), which must
	// reach every partition's consumer, not just the one a key hashes to.
	// A partition outside the topic is mq.ErrOutOfRange.
	SendTo(topic string, partition int, recs []Record) error
}

// Consumer reads records from one topic, either as a member of a consumer
// group (partitions dealt across members, offsets committed group-wide,
// commits fenced by the membership generation) or standalone (all
// partitions, private positions).
type Consumer interface {
	// PollInto appends up to max records onto a caller-owned scratch slice
	// and returns the extended slice, blocking until at least one is
	// available, ctx is cancelled, or the topic closes — so a steady-state
	// poll loop allocates nothing per poll. The records' Key/Value bytes are
	// lent, not given: read-only, and valid until the next PollInto or
	// TryPollInto on this consumer (a network backend points them into the
	// frame it just read). One goroutine polls a consumer at a time.
	PollInto(ctx context.Context, dst []Record, max int) ([]Record, error)
	// TryPollInto is a non-blocking PollInto (same lending rule); dst
	// unextended when nothing is ready. A consumer that has never called
	// WaitChan always asks the backend, so a TryPollInto issued after a send
	// completed finds that record. Once WaitChan has been called, "nothing is
	// ready" may be answered from what has reached the consumer rather than
	// by asking: a remote backend whose daemon pushes records finds nothing,
	// for no round trip, until the push lands — so a TryPollInto may find
	// nothing for up to a network hop after an append, and the channel armed
	// before it fires when it would find something.
	TryPollInto(dst []Record, max int) ([]Record, error)
	// WaitChan returns a channel that becomes ready — receives, or is closed
	// — when new records may be available to this consumer (closed if the
	// topic is shut down); take one receive per call. Arm it BEFORE a
	// TryPollInto, block on it only if the poll came back empty: an armed
	// channel fires whenever a TryPollInto that found nothing would now find
	// something — after an append to a partition the consumer owns, and
	// after a rebalance that hands it a partition with a backlog. Backends may deliver spurious wakeups (a woken caller re-polls
	// and finds nothing), and a remote backend's wakeup may lag the append by
	// a network round trip; but a wakeup is never lost. Callers may park on
	// the channel with no timer of their own, as the streams pump does.
	WaitChan() <-chan struct{}
	// TopicClosed reports whether the topic has been shut down: retained
	// records can still be fetched, but no new records will arrive.
	TopicClosed() bool
	// Assignment returns the partitions this consumer currently owns.
	Assignment() []int
	// Committed returns the consumer's read position for partition p — the
	// processed view: the offset past the last record of p a poll has handed
	// out, however far the backend has fetched ahead for the consumer (a
	// network client holds pushed records the daemon has already committed).
	// Read between polls, it is the cut a checkpoint records.
	Committed(p int) int64
	// Lag returns the total records between this consumer's positions and
	// the high watermarks of its owned partitions, counting records fetched
	// ahead for the consumer and not yet handed out.
	Lag() int64
	// Close releases the consumer; group members leave the group,
	// triggering a rebalance for the remaining members. Records fetched
	// ahead for the consumer and never handed out go back to the group: the
	// partition's next owner gets them, once.
	Close()
}

// Bus is one message-bus backend: the only substrate handle the live
// dataflow layers (streams.Runtime, the core sessions, the ingest valves)
// hold. All methods are safe for concurrent use.
type Bus interface {
	// CreateTopic creates a topic with the given partition count; retain
	// is how many records every reader has consumed each partition keeps for
	// replay (FetchInto) — what no reader can read any more beyond those is
	// freed — and 0 keeps everything. Creation is idempotent across clients: creating a
	// topic that already exists with the SAME partition count succeeds
	// (multi-process deployments race their nodes' startups and first
	// wins), while a partition-count mismatch is an error — silently
	// proceeding would split sub-streams across incompatible hash spaces.
	CreateTopic(name string, partitions, retain int) error
	// TopicPartitions returns the partition count of an existing topic.
	TopicPartitions(name string) (int, error)
	// NewProducer returns a producer bound to this bus.
	NewProducer() Producer
	// NewConsumer returns a standalone consumer over every partition of
	// topic, starting at the current low watermarks.
	NewConsumer(topic string) (Consumer, error)
	// NewGroupConsumer returns a consumer that joins the named group on
	// topic; partitions are rebalanced across the group's live members.
	NewGroupConsumer(topic, group string) (Consumer, error)
	// GroupLag returns the total records between a group's committed
	// offsets and the topic's high watermarks — the ingest-backpressure
	// probe, which must stay truthful on every backend (a remote bus that
	// under-reported lag would quietly disable backpressure). Records a
	// backend has fetched ahead for the group's members count as consumed:
	// a network daemon commits what it pushes, so the records buffered at
	// clients — at most a few push frames per member — are not in it.
	GroupLag(topic, group string) (int64, error)
	// GroupCommitted returns a group's committed offset per partition
	// (index = partition). The snapshot is not atomic across partitions.
	GroupCommitted(topic, group string) ([]int64, error)
	// FetchInto reads up to max records from a partition starting at
	// offset from, appending onto dst — the offset-addressed replay read
	// crash recovery uses (never blocks; mq.ErrOutOfRange below the low
	// watermark). The records own their Key/Value bytes.
	FetchInto(dst []Record, topic string, partition int, from int64, max int) ([]Record, error)
	// Close releases the bus handle. The in-memory backend closes its
	// broker (waking every blocked poll with mq.ErrClosed); a network
	// client closes its connections but leaves the remote daemon — and the
	// topics it owns — running.
	Close() error
}

// Counters is a snapshot of one bus handle's transport-level counters.
// Network backends account their wire traffic here; the in-memory backend,
// which has no wire, reports zeros.
type Counters struct {
	// BytesOut / BytesIn count wire bytes written and read by this handle,
	// frame headers included.
	BytesOut, BytesIn int64
	// RoundTrips counts requests: those a client handle issued, those a
	// server served. Each is a write and a read on each side — plus, unless
	// it is a credit grant, which nobody answers, the answer's — whether or
	// not it moved a record, so round trips per record is the transport's
	// overhead figure. Records a daemon pushes to consumers are not requests.
	RoundTrips int64
	// Reconnects counts connections re-established after a loss.
	Reconnects int64
	// SendErrors / PollErrors count producer sends and consumer polls that
	// failed after any reconnect retry.
	SendErrors, PollErrors int64
}

// CounterSource is implemented by backends that account transport
// counters; callers type-assert (the ops exposition does) rather than
// every backend carrying dead zeros.
type CounterSource interface {
	Counters() Counters
}
