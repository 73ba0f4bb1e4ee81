package mq

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Record is one message in a partition log.
type Record struct {
	// Key selects the partition (hashed); an empty key round-robins.
	Key []byte
	// Value is the payload, opaque to the broker.
	Value []byte
	// Ts is the producer-assigned timestamp.
	Ts time.Time
	// Watermark is an optional piggybacked event-time low watermark. Zero
	// means "no watermark". The broker treats it as opaque metadata;
	// event-time consumers fold it into their own watermark tracking.
	Watermark Watermark
	// Partition and Offset locate the record once appended.
	Partition int
	Offset    int64
}

// Watermark is an event-time low watermark a producer piggybacks on its
// records: the promise that (barring allowed lateness) no future record of
// the same producing chain carries an event timestamp below At. From names
// the originating chain — distinct producers may legitimately carry the
// same record keys (shared sub-stream IDs), so consumers must track
// watermark progress per (From, key), never per key alone.
//
// A zero At with a non-empty From is a liveness keepalive: the producer
// promises nothing about event time yet (it may still be buffering its
// first windows) but is alive — consumers refresh their idle clocks for
// the chain without folding a watermark.
type Watermark struct {
	// From identifies the producing chain (a source valve, a tree node).
	From string
	// At is the low-watermark instant (zero: keepalive only).
	At time.Time
}

// IsZero reports a watermark that carries nothing at all — neither a
// low-watermark instant nor a keepalive identity.
func (w Watermark) IsZero() bool { return w.From == "" && w.At.IsZero() }

// TopicOption customizes topic creation.
type TopicOption func(*Topic)

// WithRetention bounds each partition to at most n fully-consumed records:
// once every registered consumer group has committed past them, older
// records may be discarded down to the most recent n. Without this option
// logs grow without bound, as in Kafka with unlimited retention.
func WithRetention(n int) TopicOption {
	return func(t *Topic) { t.retain = n }
}

// Topic is a named, partitioned, append-only log.
type Topic struct {
	name   string
	parts  []*partition
	retain int // 0 = unlimited

	mu     sync.Mutex
	groups map[string]*group
	closed bool
	// changed is closed and replaced whenever any partition receives an
	// append, waking blocked consumers — once a waiter has taken it (armed):
	// an append nobody waits on allocates no channel.
	changed chan struct{}
	armed   bool
}

func newTopic(name string, partitions int, opts ...TopicOption) *Topic {
	t := &Topic{
		name:    name,
		parts:   make([]*partition, partitions),
		groups:  make(map[string]*group),
		changed: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(t)
	}
	for i := range t.parts {
		// While its groups keep up, compaction holds a retained log under
		// 2 × retain records: the log to allocate once (see room).
		t.parts[i] = &partition{logCap: 2 * t.retain}
	}
	return t
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Partitions returns the partition count.
func (t *Topic) Partitions() int { return len(t.parts) }

// appendBatch appends a batch of records — each with Partition already
// assigned by the producer — under a single topic-lock acquisition, waking
// blocked consumers once for the whole batch instead of once per record.
// Consecutive records sharing a partition are appended as one run under
// that partition's lock.
func (t *Topic) appendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	for lo := 0; lo < len(recs); {
		p := recs[lo].Partition
		hi := lo + 1
		for hi < len(recs) && recs[hi].Partition == p {
			hi++
		}
		t.parts[p].appendRun(recs[lo:hi], p)
		lo = hi
	}
	t.fireUnlock()

	if t.retain > 0 {
		for lo := 0; lo < len(recs); {
			p := recs[lo].Partition
			hi := lo + 1
			for hi < len(recs) && recs[hi].Partition == p {
				hi++
			}
			t.maybeCompact(p)
			lo = hi
		}
	}
	return nil
}

// closedChan is returned by waitCh on a shut-down topic so waiters armed
// after the close still wake immediately.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// waitCh returns a channel closed on the next append, or an already-closed
// channel if the topic is shut down.
func (t *Topic) waitCh() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return closedChan
	}
	t.armed = true
	return t.changed
}

// fireUnlock wakes the waiters armed on the current wait channel, if any, by
// closing it and installing a fresh one, and releases t.mu, which the caller
// holds.
func (t *Topic) fireUnlock() {
	if !t.armed {
		t.mu.Unlock()
		return
	}
	old := t.changed
	t.changed, t.armed = make(chan struct{}), false
	t.mu.Unlock()
	close(old)
}

// wake fires the current wait channel without appending: a group's
// membership changed, and a member it handed a partition with a backlog must
// look again. Members of other groups on the topic re-poll and find nothing —
// a spurious wakeup, which WaitChan's contract allows.
func (t *Topic) wake() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.fireUnlock()
}

func (t *Topic) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	close(t.changed)
	t.changed = make(chan struct{}) // keep waitCh non-nil for stragglers
}

func (t *Topic) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// HighWatermark returns the next offset to be assigned in partition p.
func (t *Topic) HighWatermark(p int) int64 {
	return t.parts[p].highWatermark()
}

// LowWatermark returns the oldest retained offset in partition p.
func (t *Topic) LowWatermark(p int) int64 {
	return t.parts[p].lowWatermark()
}

// Fetch reads up to max records from partition p starting at offset from.
// It never blocks; an empty result means the caller is at the high
// watermark. Reading below the low watermark returns ErrOutOfRange.
func (t *Topic) Fetch(p int, from int64, max int) ([]Record, error) {
	return t.parts[p].fetchInto(nil, from, max)
}

// FetchInto is the scratch-reusing form of Fetch: records are appended to
// dst (which may be nil or a recycled slice) and the extended slice is
// returned, so a steady-state poll loop allocates nothing. On error the
// returned slice is dst unchanged.
func (t *Topic) FetchInto(dst []Record, p int, from int64, max int) ([]Record, error) {
	return t.parts[p].fetchInto(dst, from, max)
}

// maybeCompact drops records that every group has committed past, keeping at
// least the latest retain records. Compaction runs only once a partition has
// accumulated twice its retention, so its cost is amortized O(1) per append.
func (t *Topic) maybeCompact(p int) {
	if t.parts[p].length() < 2*t.retain {
		return
	}
	t.mu.Lock()
	minCommitted := int64(-1)
	for _, g := range t.groups {
		c := g.committedOffset(p)
		if minCommitted == -1 || c < minCommitted {
			minCommitted = c
		}
	}
	t.mu.Unlock()
	if minCommitted <= 0 {
		return
	}
	t.parts[p].truncate(minCommitted, t.retain)
}

// Groups returns the names of the consumer groups registered on the topic,
// sorted for deterministic output.
func (t *Topic) Groups() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.groups))
	for name := range t.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GroupLag returns the total records between a group's committed offsets and
// the high watermarks, or an error for an unknown group.
func (t *Topic) GroupLag(name string) (int64, error) {
	t.mu.Lock()
	g, ok := t.groups[name]
	t.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("mq: unknown group %q on topic %q", name, t.name)
	}
	var lag int64
	for p := range t.parts {
		d := t.HighWatermark(p) - g.committedOffset(p)
		if d > 0 {
			lag += d
		}
	}
	return lag, nil
}

// GroupCommitted returns a group's committed offset for every partition
// (index = partition), or an error for an unknown group. The snapshot is
// not atomic across partitions; each offset is individually consistent.
func (t *Topic) GroupCommitted(name string) ([]int64, error) {
	t.mu.Lock()
	g, ok := t.groups[name]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("mq: unknown group %q on topic %q", name, t.name)
	}
	offs := make([]int64, len(t.parts))
	for p := range offs {
		offs[p] = g.committedOffset(p)
	}
	return offs, nil
}

// group returns (creating if needed) the named consumer group.
func (t *Topic) group(name string) *group {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.groups[name]
	if !ok {
		g = newGroup(len(t.parts))
		t.groups[name] = g
	}
	return g
}

// partition is a single append-only log with a sliding base offset.
type partition struct {
	mu      sync.Mutex
	records []Record
	base    int64 // offset of records[0]
	logCap  int   // 2 × retain: the retained log's one full-size allocation; 0 = grow by append
}

// smallLog is how many records a retained log holds before it moves to its
// full size: a lane that only ever carries a few records (an end-of-stream
// broadcast, a partition a rescale left idle) costs kilobytes, not a full log.
const smallLog = 64

// room makes space for n more records. A retained log grows by append up to
// smallLog records and then, the first time it needs more, is allocated once
// at its full 2 × retain — not grown step by step, which costs about five
// times the final log in allocations. Callers hold mu.
func (p *partition) room(n int) {
	need := len(p.records) + n
	if need > smallLog && need > cap(p.records) && cap(p.records) < p.logCap {
		grown := make([]Record, len(p.records), max(p.logCap, need))
		copy(grown, p.records)
		p.records = grown
	}
}

// appendRun appends a run of records destined for this partition under one
// lock acquisition. The stored copies get their Partition/Offset assigned;
// the caller's slice is left untouched.
func (p *partition) appendRun(recs []Record, idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.room(len(recs))
	for _, rec := range recs {
		rec.Partition = idx
		rec.Offset = p.base + int64(len(p.records))
		p.records = append(p.records, rec)
	}
}

func (p *partition) highWatermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base + int64(len(p.records))
}

func (p *partition) lowWatermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// fetchInto appends up to max records starting at offset from onto dst and
// returns the extended slice — the zero-alloc fetch the hot poll path uses
// (pass nil dst for the allocating form). On error dst is returned unchanged.
func (p *partition) fetchInto(dst []Record, from int64, max int) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < p.base {
		return dst, ErrOutOfRange
	}
	start := from - p.base
	if start >= int64(len(p.records)) {
		return dst, nil
	}
	end := start + int64(max)
	if end > int64(len(p.records)) {
		end = int64(len(p.records))
	}
	return append(dst, p.records[start:end]...), nil
}

// length returns the number of retained records.
func (p *partition) length() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.records)
}

// truncate drops records with offset < upTo, retaining at least keep
// records. The surviving records are copied down in place and the freed
// tail zeroed so payload memory is reclaimable — no reallocation.
func (p *partition) truncate(upTo int64, keep int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	limit := p.base + int64(len(p.records)) - int64(keep)
	if upTo > limit {
		upTo = limit
	}
	if upTo <= p.base {
		return
	}
	drop := upTo - p.base
	n := copy(p.records, p.records[drop:])
	tail := p.records[n:]
	for i := range tail {
		tail[i] = Record{}
	}
	p.records = p.records[:n]
	p.base = upTo
}
