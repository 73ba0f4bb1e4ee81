package streams

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/vclock"
)

// Runtime executes a Topology against a transport bus: one pump goroutine
// polls the topology's source topics, pushes each record synchronously
// through the DAG, and fires punctuations when they come due. It models a
// single Kafka Streams instance on one edge node; with a network bus the
// instance really is remote from its broker.
type Runtime struct {
	bus       transport.Bus
	topo      *Topology
	appID     string
	clock     vclock.Clock
	pollBatch int
	pollWait  time.Duration
	noBatch   bool // WithRecordAtATime: force the per-record seed path

	consumers map[string]transport.Consumer // source name → consumer
	producer  transport.Producer
	contexts  map[string]*nodeContext
	instances map[string]Processor
	observers []CycleObserver // processors implementing CycleObserver, in topology order

	// Pump scratch, reused every poll cycle so the steady-state hot path
	// allocates nothing: polled records, their Message views, and the
	// record form ForwardBatch hands to sink sends. Owned by the single
	// pump goroutine (sinkScratch also by synchronous dispatch from it).
	recScratch  []mq.Record
	msgScratch  []Message
	sinkScratch []mq.Record

	mu      sync.Mutex
	puncts  []*punctuation
	started bool
	stopped bool
	frozen  bool        // Freeze: pump halted, consumers still in their groups
	busy    atomic.Bool // pump mid-cycle (set before fetching, cleared when idle)

	syncCh chan func() // Sync: closures executed on the pump goroutine
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// PartitionOffset pairs a partition with a consumer offset; SourceCommitted
// returns one per owned partition.
type PartitionOffset struct {
	Partition int
	Offset    int64
}

// OffsetReader is implemented by the ProcessorContext a Runtime hands its
// processors: it exposes the committed offsets of the runtime's source
// consumers, so a processor can checkpoint "state as of these offsets"
// without widening the ProcessorContext interface for every implementation.
type OffsetReader interface {
	SourceCommitted() []PartitionOffset
}

// CycleObserver is an optional Processor extension: AfterCycle runs on the
// pump goroutine at the end of every poll cycle that dispatched records —
// the same consistent cut Sync closures see, where every fetched record has
// been dispatched and the committed source offsets account for exactly the
// records the processor has ingested. Processors that emit output mid-cycle
// (event-time inline window closes) use it to checkpoint immediately after
// emitting, so no output ever exists that a checkpoint does not cover.
type CycleObserver interface {
	AfterCycle()
}

type punctuation struct {
	interval  time.Duration
	next      time.Time
	fn        func(now time.Time)
	cancelled bool
}

// RuntimeOption customizes a Runtime.
type RuntimeOption func(*Runtime)

// WithClock overrides the runtime clock (default wall clock).
func WithClock(c vclock.Clock) RuntimeOption {
	return func(r *Runtime) { r.clock = c }
}

// WithPollBatch sets the per-poll record cap (default 256).
func WithPollBatch(n int) RuntimeOption {
	return func(r *Runtime) {
		if n > 0 {
			r.pollBatch = n
		}
	}
}

// WithPollWait bounds how long the pump blocks waiting for records before
// re-checking punctuations (default 10ms).
func WithPollWait(d time.Duration) RuntimeOption {
	return func(r *Runtime) {
		if d > 0 {
			r.pollWait = d
		}
	}
}

// WithRecordAtATime forces the pre-batching hot path: every polled record is
// dispatched with its own Process call and every sink emission is its own
// broker append, even for BatchProcessor instances. The equivalence suite
// uses it as the semantic reference the batched path must match; it is not
// meant for production topologies.
func WithRecordAtATime() RuntimeOption {
	return func(r *Runtime) { r.noBatch = true }
}

// NewRuntime prepares a runtime for topo over the given bus. appID
// namespaces the consumer groups, so multiple runtimes with distinct IDs
// each receive the full stream, while runtimes sharing an ID split
// partitions like a Kafka Streams application scaled horizontally — whether
// they share a process (in-memory bus) or not (network bus).
func NewRuntime(bus transport.Bus, topo *Topology, appID string, opts ...RuntimeOption) (*Runtime, error) {
	r := &Runtime{
		bus:       bus,
		topo:      topo,
		appID:     appID,
		clock:     vclock.WallClock{},
		pollBatch: 256,
		pollWait:  10 * time.Millisecond,
		consumers: make(map[string]transport.Consumer),
		contexts:  make(map[string]*nodeContext),
		instances: make(map[string]Processor),
		producer:  bus.NewProducer(),
		syncCh:    make(chan func()),
		done:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(r)
	}

	for _, name := range topo.order {
		n := topo.nodes[name]
		switch n.kind {
		case kindSource:
			c, err := bus.NewGroupConsumer(n.topic, appID+"-"+name)
			if err != nil {
				return nil, fmt.Errorf("streams: source %q: %w", name, err)
			}
			r.consumers[name] = c
		case kindProcessor:
			inst := n.supplier()
			r.instances[name] = inst
			if o, ok := inst.(CycleObserver); ok {
				r.observers = append(r.observers, o)
			}
		}
		r.contexts[name] = &nodeContext{rt: r, node: n}
	}
	return r, nil
}

// nodeContext implements ProcessorContext for one topology node.
type nodeContext struct {
	rt   *Runtime
	node *node
}

var (
	_ ProcessorContext = (*nodeContext)(nil)
	_ OffsetReader     = (*nodeContext)(nil)
)

func (c *nodeContext) NodeName() string { return c.node.name }
func (c *nodeContext) Now() time.Time   { return c.rt.clock.Now() }

func (c *nodeContext) SourceCommitted() []PartitionOffset { return c.rt.SourceCommitted() }

func (c *nodeContext) Forward(msg Message) {
	for _, child := range c.node.children {
		if err := c.rt.dispatch(child, msg); err != nil {
			c.rt.fail(err)
		}
	}
}

func (c *nodeContext) ForwardBatch(msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	for _, child := range c.node.children {
		if err := c.rt.dispatchBatch(child, msgs); err != nil {
			c.rt.fail(err)
		}
	}
}

func (c *nodeContext) Schedule(interval time.Duration, fn func(now time.Time)) func() {
	if interval <= 0 {
		interval = time.Millisecond
	}
	p := &punctuation{interval: interval, next: c.rt.clock.Now().Add(interval), fn: fn}
	c.rt.mu.Lock()
	c.rt.puncts = append(c.rt.puncts, p)
	c.rt.mu.Unlock()
	return func() {
		c.rt.mu.Lock()
		p.cancelled = true
		c.rt.mu.Unlock()
	}
}

// dispatch routes one message into the node named name.
func (r *Runtime) dispatch(name string, msg Message) error {
	n := r.topo.nodes[name]
	switch n.kind {
	case kindProcessor:
		return r.instances[name].Process(msg)
	case kindSink:
		_, _, err := r.producer.SendWatermarked(n.topic, msg.Key, msg.Value, msg.Watermark)
		return err
	default:
		return fmt.Errorf("streams: cannot dispatch into source %q", name)
	}
}

// dispatchBatch routes a whole polled batch into the node named name:
// BatchProcessor instances take the slice in one call, plain processors get
// the per-record loop (same order, same semantics), and sinks produce the
// batch with a single SendBatch append. msgs is never retained.
func (r *Runtime) dispatchBatch(name string, msgs []Message) error {
	if len(msgs) == 1 {
		return r.dispatch(name, msgs[0])
	}
	n := r.topo.nodes[name]
	switch n.kind {
	case kindProcessor:
		if bp, ok := r.instances[name].(BatchProcessor); ok && !r.noBatch {
			return bp.ProcessBatch(msgs)
		}
		inst := r.instances[name]
		for i := range msgs {
			if err := inst.Process(msgs[i]); err != nil {
				return err
			}
		}
		return nil
	case kindSink:
		if r.noBatch {
			for i := range msgs {
				if _, _, err := r.producer.SendWatermarked(n.topic, msgs[i].Key, msgs[i].Value, msgs[i].Watermark); err != nil {
					return err
				}
			}
			return nil
		}
		recs := r.sinkScratch[:0]
		for i := range msgs {
			recs = append(recs, mq.Record{Key: msgs[i].Key, Value: msgs[i].Value, Watermark: msgs[i].Watermark})
		}
		err := r.producer.SendBatch(n.topic, recs)
		// Scrub the scratch before recycling: the records hold references to
		// the callers' key/value bytes, and a stale reference in spare
		// capacity would pin them past their lifetime.
		for i := range recs {
			recs[i] = mq.Record{}
		}
		r.sinkScratch = recs[:0]
		return err
	default:
		return fmt.Errorf("streams: cannot dispatch into source %q", name)
	}
}

// Start initializes all processors and launches the pump goroutine. A
// runtime that was stopped (even before ever starting) cannot be started.
func (r *Runtime) Start() error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return errors.New("streams: runtime stopped")
	}
	if r.started {
		r.mu.Unlock()
		return errors.New("streams: runtime already started")
	}
	r.started = true
	r.mu.Unlock()

	for i, name := range r.topo.order {
		if p, ok := r.instances[name]; ok {
			if err := p.Init(r.contexts[name]); err != nil {
				// Failed mid-init: close what was initialized and revert to
				// never-started, so a subsequent Stop cleans up consumers
				// without touching the unlaunched pump (nil cancel, open
				// done channel).
				for _, prev := range r.topo.order[:i] {
					if q, ok := r.instances[prev]; ok {
						_ = q.Close()
					}
				}
				r.mu.Lock()
				r.started = false
				r.mu.Unlock()
				return fmt.Errorf("streams: init %q: %w", name, err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.pump(ctx)
	return nil
}

// pump is the single processing loop.
func (r *Runtime) pump(ctx context.Context) {
	defer close(r.done)
	defer r.busy.Store(false)
	sources := r.topo.Sources()
	// With a single source (every edge-tree topology) the idle branch can
	// block on the topic's append signal instead of sleeping the full poll
	// wait — the runtime wakes the moment records arrive, like a blocking
	// Kafka poll. The channel is armed before each poll so a record landing
	// between the empty poll and the wait is never missed.
	var wake <-chan struct{}
	single := len(sources) == 1
	// One timer bounds every idle wait of this pump: stopped, drained and
	// re-armed per wait, so an expiry nobody waited for (a wake or a Sync
	// ended the wait first) is never taken for the next wait's.
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for {
		if ctx.Err() != nil {
			return
		}
		// Mark busy BEFORE fetching: a group poll commits offsets at fetch
		// time (Lag drops before the records are dispatched), so quiescence
		// probes must see either lag > 0 or Busy() — never a gap.
		r.busy.Store(true)
		// Sync closures run here, between cycles: every previously fetched
		// record has been dispatched and no fetch is in flight, so a closure
		// observes state consistent with the committed offsets.
		select {
		case fn := <-r.syncCh:
			fn()
		default:
		}
		r.firePunctuations()

		if single {
			wake = r.consumers[sources[0]].WaitChan()
		}
		progressed := false
		for _, src := range sources {
			recs, err := r.consumers[src].TryPollInto(r.recScratch[:0], r.pollBatch)
			if err != nil {
				if !errors.Is(err, mq.ErrClosed) {
					r.fail(err)
				}
				return
			}
			r.recScratch = recs
			if r.noBatch {
				// Seed path: one dispatch per record, in order.
				for _, rec := range recs {
					msg := Message{Key: rec.Key, Value: rec.Value, Ts: rec.Ts, Watermark: rec.Watermark, Partition: rec.Partition}
					for _, child := range r.topo.nodes[src].children {
						if err := r.dispatch(child, msg); err != nil {
							r.fail(err)
							return
						}
					}
				}
			} else if len(recs) > 0 {
				// Batched path: view the fetch as one []Message and hand the
				// whole batch down — BatchProcessor children decode/process
				// per fetched batch, sinks append once per fetched batch.
				msgs := r.msgScratch[:0]
				for _, rec := range recs {
					msgs = append(msgs, Message{Key: rec.Key, Value: rec.Value, Ts: rec.Ts, Watermark: rec.Watermark, Partition: rec.Partition})
				}
				r.msgScratch = msgs
				for _, child := range r.topo.nodes[src].children {
					if err := r.dispatchBatch(child, msgs); err != nil {
						r.fail(err)
						return
					}
				}
			}
			if len(recs) > 0 {
				progressed = true
			}
		}
		if r.failed() {
			return
		}
		if progressed {
			// End-of-cycle cut: every record fetched this cycle has been
			// dispatched, so observers see state consistent with the
			// committed offsets (even when ctx was cancelled mid-cycle —
			// the exit check at the loop top runs after this).
			for _, o := range r.observers {
				o.AfterCycle()
			}
		} else {
			if single && r.consumers[sources[0]].TopicClosed() {
				// Drained and the topic is gone: no record can ever
				// arrive again (and its wake channel fires forever).
				// End-of-stream: flush windowed processors by firing
				// every live punctuation once before exiting.
				r.finalPunctuations()
				return
			}
			// Idle: block until records arrive (single source), bounded by
			// the nearest punctuation or the configured poll wait.
			r.busy.Store(false)
			stopTimer(idle)
			idle.Reset(r.idleWait())
			select {
			case <-ctx.Done():
				return
			case fn := <-r.syncCh: // Sync while idle: run without waiting out the timer
				fn()
			case <-wake: // nil (multi-source): never fires, timer bounds
			case <-idle.C:
			}
		}
	}
}

// stopTimer stops t and empties its channel, leaving it safe to Reset: the
// module's go line predates Go 1.23, so an expiry the pump did not wait for
// stays buffered in t.C until it is taken out.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

func (r *Runtime) idleWait() time.Duration {
	wait := r.pollWait
	r.mu.Lock()
	now := r.clock.Now()
	for _, p := range r.puncts {
		if p.cancelled {
			continue
		}
		if d := p.next.Sub(now); d < wait {
			wait = d
		}
	}
	r.mu.Unlock()
	if wait < 0 {
		wait = 0
	}
	return wait
}

func (r *Runtime) firePunctuations() {
	now := r.clock.Now()
	r.mu.Lock()
	var due []*punctuation
	live := r.puncts[:0]
	for _, p := range r.puncts {
		if p.cancelled {
			continue
		}
		if !now.Before(p.next) {
			due = append(due, p)
			p.next = now.Add(p.interval)
		}
		live = append(live, p)
	}
	r.puncts = live
	r.mu.Unlock()
	for _, p := range due {
		p.fn(now)
	}
}

// finalPunctuations fires every live punctuation once, due or not —
// end-of-stream flush semantics, so a windowed processor's buffered final
// window is forwarded instead of silently dropped.
func (r *Runtime) finalPunctuations() {
	now := r.clock.Now()
	r.mu.Lock()
	var due []*punctuation
	for _, p := range r.puncts {
		if !p.cancelled {
			due = append(due, p)
			p.next = now.Add(p.interval)
		}
	}
	r.mu.Unlock()
	for _, p := range due {
		p.fn(now)
	}
}

func (r *Runtime) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *Runtime) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

// Stop shuts the pump down, closes processors and consumers, and waits.
// It is idempotent, and safe on a never-started runtime: the consumers are
// still closed (leaving their groups, releasing their partitions), though
// processors — never initialized — are not Close()d.
func (r *Runtime) Stop() error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return r.err
	}
	r.stopped = true
	started := r.started
	r.mu.Unlock()

	if started {
		r.cancel()
		<-r.done
		for name, p := range r.instances {
			if err := p.Close(); err != nil {
				r.fail(fmt.Errorf("streams: close %q: %w", name, err))
			}
		}
	}
	for _, c := range r.consumers {
		c.Close()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Freeze halts the pump goroutine without releasing anything: processors are
// not closed and consumers stay in their groups, still owning their
// partitions. It models a member crashing ("kill -9"): processing stops
// dead, but the group has not yet noticed. The caller can then inspect
// still-owned state (SourceCommitted) before completing the death with Stop,
// which triggers the rebalance. Idempotent; a no-op before Start or after
// Stop.
func (r *Runtime) Freeze() {
	r.mu.Lock()
	if !r.started || r.stopped || r.frozen {
		r.mu.Unlock()
		return
	}
	r.frozen = true
	r.mu.Unlock()
	r.cancel()
	<-r.done
}

// Sync runs fn on the pump goroutine between processing cycles — at a point
// where every fetched record has been dispatched and no fetch is in flight —
// and returns once fn has completed. Processor state observed by fn is
// consistent with the source consumers' committed offsets, which makes Sync
// the barrier primitive for checkpoint-before-rebalance. It fails if the
// pump is not running (never started, stopped, frozen, or failed).
func (r *Runtime) Sync(fn func()) error {
	r.mu.Lock()
	running := r.started && !r.stopped && !r.frozen
	r.mu.Unlock()
	if !running {
		return errors.New("streams: runtime not running")
	}
	done := make(chan struct{})
	select {
	case r.syncCh <- func() { defer close(done); fn() }:
		<-done
		return nil
	case <-r.done:
		return errors.New("streams: runtime not running")
	}
}

// SourceCommitted returns the committed offsets of every partition currently
// owned by this runtime's source consumers, sorted by partition. With the
// single-source topologies the session builds, the offsets all refer to that
// source's topic.
func (r *Runtime) SourceCommitted() []PartitionOffset {
	var offs []PartitionOffset
	for _, c := range r.consumers {
		for _, p := range c.Assignment() {
			offs = append(offs, PartitionOffset{Partition: p, Offset: c.Committed(p)})
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i].Partition < offs[j].Partition })
	return offs
}

// Busy reports whether the pump is mid-cycle: fetched records may be in
// flight through the DAG even though Lag reads 0 (group offsets commit at
// fetch time). Quiescence probes must require Lag() == 0 && !Busy().
func (r *Runtime) Busy() bool { return r.busy.Load() }

// Lag returns the total number of records waiting in this runtime's source
// topics (0 when fully caught up). Drain logic uses it to detect quiescence.
func (r *Runtime) Lag() int64 {
	var lag int64
	for _, c := range r.consumers {
		lag += c.Lag()
	}
	return lag
}

// Done is closed when the pump goroutine exits.
func (r *Runtime) Done() <-chan struct{} { return r.done }

// Err returns the first error the runtime hit, if any.
func (r *Runtime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
