package mq

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// WithRetention keeps, in each partition, the newest n records every reader
// has consumed — the replay window crash recovery reads back (Kafka's
// retention) — and frees the rest once nothing can read them (see compact).
// Without this option logs grow without bound, as in Kafka with unlimited
// retention.
func WithRetention(n int) TopicOption {
	return func(t *Topic) { t.retain = n }
}

// Topic is a named, partitioned, append-only log.
type Topic struct {
	name   string
	parts  []*partition
	retain int // 0 = unlimited
	pool   *segPool

	mu        sync.Mutex
	groups    map[string]*group
	consumers []*Consumer // open consumers: their positions and lends hold records
	closed    bool
	// waiting holds the armed waiters. The first append to a partition a
	// waiter watches fires it — puts a token in its channel and takes it off
	// the list — so an append wakes only the consumers that can fetch it.
	waiting []*waiter
}

// waiter is one consumer's wake channel and the partitions it watches.
// The channel holds one token and is the consumer's for its lifetime: a
// wake allocates nothing. Guarded by its topic's mu.
type waiter struct {
	ch    chan struct{} // capacity 1: a token is a wake not yet taken
	parts []int         // the watched partitions, unless all
	all   bool
	armed bool // on the topic's waiting list
}

// watches reports whether an append of recs touches a watched partition.
// recs come in runs of one partition, so each run is looked up once.
func (w *waiter) watches(recs []Record) bool {
	if w.all {
		return true
	}
	for i := range recs {
		if i > 0 && recs[i].Partition == recs[i-1].Partition {
			continue
		}
		if slices.Contains(w.parts, recs[i].Partition) {
			return true
		}
	}
	return false
}

func newTopic(name string, partitions int, pool *segPool, opts ...TopicOption) *Topic {
	t := &Topic{
		name:   name,
		parts:  make([]*partition, partitions),
		pool:   pool,
		groups: make(map[string]*group),
	}
	for _, opt := range opts {
		opt(t)
	}
	for i := range t.parts {
		// While its readers keep up, compaction holds a retained log under
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
// the blocked consumers that watch its partitions once for the whole batch
// instead of once per record.
// Consecutive records sharing a partition are appended as one run under
// that partition's lock, their bytes copied into its segments; a partition
// whose run sealed a segment is compacted after.
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
		t.parts[p].appendRun(recs[lo:hi], p, t.pool)
		lo = hi
	}
	t.fireUnlock(recs)

	if t.retain > 0 {
		for lo := 0; lo < len(recs); {
			p := recs[lo].Partition
			hi := lo + 1
			for hi < len(recs) && recs[hi].Partition == p {
				hi++
			}
			if t.parts[p].sealed.Swap(false) {
				t.compact(p)
			}
			lo = hi
		}
	}
	return nil
}

// closedChan is returned by arm on a shut-down topic so waiters armed after
// the close still wake immediately.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// arm puts w on the waiting list and returns its channel, which receives a
// token at the next append to a watched partition or the next wake — or a
// closed channel if the topic is shut down. A standalone consumer (g nil)
// watches every partition, a group member parts, its assignment at fencing
// epoch epoch — or every partition if the group has moved past that epoch:
// the rebalance's wake may have come before this arm, and the member may own
// partitions parts does not name. A token left from before the arm is
// dropped: the poll that follows an arm sees every record appended before
// it. Re-arming an armed waiter replaces what it watches.
func (t *Topic) arm(w *waiter, parts []int, g *group, epoch int64) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return closedChan
	}
	all := g == nil || g.currentEpoch() != epoch
	if w.ch == nil {
		w.ch = make(chan struct{}, 1)
	}
	select {
	case <-w.ch:
	default:
	}
	if !w.armed {
		w.armed = true
		t.waiting = append(t.waiting, w)
	}
	w.parts, w.all = parts, all
	return w.ch
}

// fireUnlock fires the armed waiters that watch a partition of recs — every
// armed waiter when recs is nil — and releases t.mu, which the caller holds.
func (t *Topic) fireUnlock(recs []Record) {
	keep := t.waiting[:0]
	for _, w := range t.waiting {
		if recs != nil && !w.watches(recs) {
			keep = append(keep, w)
			continue
		}
		select {
		case w.ch <- struct{}{}:
		default:
		}
		w.armed = false
	}
	clear(t.waiting[len(keep):])
	t.waiting = keep
	t.mu.Unlock()
}

// wake fires every armed waiter without appending: a group's membership
// changed, and a member it handed a partition with a backlog must look
// again. Members of other groups on the topic re-poll and find nothing — a
// spurious wakeup, which WaitChan's contract allows.
func (t *Topic) wake() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.fireUnlock(nil)
}

func (t *Topic) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.fireUnlock(nil)
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
// watermark. Reading below the low watermark returns ErrOutOfRange. The
// records own their Key/Value bytes: nothing holds the segments they were
// read from, so they are copied out, into one block per call.
func (t *Topic) Fetch(p int, from int64, max int) ([]Record, error) {
	return t.FetchInto(nil, p, from, max)
}

// FetchInto is Fetch appending onto dst (which may be nil or a recycled
// slice) and returning the extended slice. On error the returned slice is
// dst unchanged.
func (t *Topic) FetchInto(dst []Record, p int, from int64, max int) ([]Record, error) {
	return t.parts[p].fetchInto(dst, from, max, nil, 0)
}

// compact frees what nobody can read again in partition idx: the records
// below the partition's hold and every sealed segment wholly below it. The
// hold is the lowest of
//
//   - every group's committed offset and every standalone consumer's
//     position, less the retention: the newest retain records all of them
//     have consumed stay for replay;
//   - the first record each open consumer lent in its last poll, which the
//     caller may read until its next one;
//   - every offset a consumer holds from (Consumer.Hold).
//
// With no group and no consumer nothing has been read, and nothing goes. It
// runs after an append has sealed a segment — once per segment, not per
// append. Committed offsets and positions are read before the partition's
// lock: they only move forward, so a stale one holds more, never less. What
// a poll lends it records under the partition's lock as it fetches, so the
// lends read under it here are exact.
func (t *Topic) compact(idx int) {
	p := t.parts[idx]
	p.cmu.Lock()
	defer p.cmu.Unlock()
	t.mu.Lock()
	for _, g := range t.groups {
		p.groups = append(p.groups, g)
	}
	p.readers = append(p.readers, t.consumers...)
	t.mu.Unlock()

	read := int64(math.MaxInt64)
	for _, g := range p.groups {
		read = min(read, g.committedOffset(idx))
	}
	for _, c := range p.readers {
		if c.grp == nil {
			read = min(read, c.position(idx))
		}
	}
	if read != math.MaxInt64 {
		hold := read - int64(t.retain)
		p.mu.Lock()
		for _, c := range p.readers {
			hold = min(hold, c.holds[idx].from(c.gen.Load()))
		}
		p.freed = p.dropBelow(hold, p.freed)
		p.mu.Unlock()
		t.pool.put(p.freed)
	}
	clear(p.groups)
	clear(p.readers)
	clear(p.freed)
	p.groups, p.readers, p.freed = p.groups[:0], p.readers[:0], p.freed[:0]
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

// partition is a single append-only log with a sliding base offset: its
// records' headers, and the segments their bytes are stored in.
type partition struct {
	mu      sync.Mutex
	records []Record // records[head:] are retained; the dropped ones before them are zeroed
	head    int
	base    int64       // offset of records[head]
	logCap  int         // 2 × retain: the retained log's one full-size allocation; 0 = grow by append
	segs    []segment   // oldest first; the last takes the appends
	sealed  atomic.Bool // a segment was sealed since the last compaction

	// cmu serializes compactions; it is taken with no other lock held, and
	// guards compact's scratch below.
	cmu     sync.Mutex
	groups  []*group
	readers []*Consumer
	freed   [][]byte
}

// smallLog is how many records a retained log holds before it moves to its
// full size: a lane that only ever carries a few records (an end-of-stream
// broadcast, a partition a rescale left idle) costs kilobytes, not a full log.
const smallLog = 64

// room makes space for n more records. Dropped records are squeezed out
// first once they fill half the log. A retained log grows by append up to
// smallLog records and then, the first time it needs more, is allocated once
// at its full 2 × retain — not grown step by step, which costs about five
// times the final log in allocations. Callers hold mu.
func (p *partition) room(n int) {
	if len(p.records)+n <= cap(p.records) {
		return
	}
	if p.head > 0 && 2*p.head >= len(p.records) {
		k := copy(p.records, p.records[p.head:])
		clear(p.records[k:])
		p.records, p.head = p.records[:k], 0
	}
	need := len(p.records) + n
	if need > smallLog && need > cap(p.records) && cap(p.records) < p.logCap {
		grown := make([]Record, len(p.records)-p.head, max(p.logCap, need-p.head))
		copy(grown, p.records[p.head:])
		p.records, p.head = grown, 0
	}
}

// appendRun appends a run of records destined for this partition under one
// lock acquisition, copying each record's Key and Value into the partition's
// segments. The stored copies get their Partition/Offset assigned; the
// caller's slice and bytes are left untouched. Sealing a segment makes a
// compaction due.
func (p *partition) appendRun(recs []Record, idx int, pool *segPool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.room(len(recs))
	for _, rec := range recs {
		rec.Partition = idx
		rec.Offset = p.base + int64(len(p.records)-p.head)
		n := len(rec.Key) + len(rec.Value)
		if k := len(p.segs); k == 0 || !p.segs[k-1].fits(n) {
			if k > 0 {
				p.sealed.Store(true)
			}
			p.segs = append(p.segs, segment{buf: pool.get(n)})
		}
		s := &p.segs[len(p.segs)-1]
		rec.Key, rec.Value = s.store(rec.Key), s.store(rec.Value)
		s.n++
		s.next = rec.Offset + 1
		p.records = append(p.records, rec)
	}
}

func (p *partition) highWatermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base + int64(len(p.records)-p.head)
}

func (p *partition) lowWatermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// fetchInto appends up to max records starting at offset from onto dst and
// returns the extended slice; on error dst is returned unchanged. A lending
// fetch — a consumer's poll, h its hold on the partition and gen the poll's
// number — appends views of the stored bytes and records the lend in h
// before the lock is let go, so no compaction frees them until the
// consumer's next poll. Without h the records are copied out, into one block.
func (p *partition) fetchInto(dst []Record, from int64, max int, h *hold, gen int64) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < p.base {
		return dst, ErrOutOfRange
	}
	live := p.records[p.head:]
	start := from - p.base
	if start >= int64(len(live)) {
		return dst, nil
	}
	got := live[start:min(start+int64(max), int64(len(live)))]
	if h != nil {
		if h.lentGen != gen {
			h.lent, h.lentGen = from, gen
		}
		return append(dst, got...), nil
	}
	size := 0
	for i := range got {
		size += len(got[i].Key) + len(got[i].Value)
	}
	s := segment{buf: make([]byte, 0, size)}
	for _, rec := range got {
		rec.Key, rec.Value = s.store(rec.Key), s.store(rec.Value)
		dst = append(dst, rec)
	}
	return dst, nil
}

// dropBelow drops the records below offset hold and appends onto freed the
// sealed segments that held only those, returning the extended list. The
// dropped headers are zeroed; the records after them stay where they are
// until room squeezes them down. Callers hold mu.
func (p *partition) dropBelow(hold int64, freed [][]byte) [][]byte {
	hold = min(hold, p.base+int64(len(p.records)-p.head))
	if hold <= p.base {
		return freed
	}
	n := int(hold - p.base)
	clear(p.records[p.head : p.head+n])
	p.head += n
	p.base = hold
	k := 0
	for k < len(p.segs)-1 && p.segs[k].next <= hold {
		freed = append(freed, p.segs[k].buf)
		k++
	}
	if k > 0 {
		m := copy(p.segs, p.segs[k:])
		clear(p.segs[m:])
		p.segs = p.segs[:m]
	}
	return freed
}
