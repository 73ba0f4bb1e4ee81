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
)

// Runtime executes a Topology against a transport bus: one pump goroutine
// polls the topology's source topic, hands each polled batch to the
// processor, and punctuates it when its deadline has passed. It models a
// single Kafka Streams instance on one edge node; with a network bus the
// instance really is remote from its broker.
//
// The pump is event-driven. A cycle that fetches nothing parks it on three
// things: the source consumer's WaitChan (records may have arrived), Sync,
// and the processor's deadline — one timer, armed only when the processor is
// a Punctuator and reports one.
type Runtime struct {
	topo    *Topology
	noBatch bool // WithRecordAtATime: one record per ProcessBatch, one message per append

	consumer transport.Consumer // the source's
	producer transport.Producer
	proc     Processor
	ctx      procContext
	observer CycleObserver // proc, when it implements CycleObserver
	punct    Punctuator    // proc, when it implements Punctuator

	// Wake-ups: pump cycles that started from a park, by what ended it.
	wakeData, wakeDeadline, wakeSync atomic.Int64

	// recScratch is the pump's poll scratch, reused every cycle so the
	// steady-state hot path allocates nothing; the processor sees it as its
	// batch. Owned by the single pump goroutine.
	recScratch []Message

	mu      sync.Mutex
	started bool
	stopped bool
	frozen  bool        // Freeze: pump halted, the consumer still in its group
	busy    atomic.Bool // pump mid-cycle (set before fetching, cleared when idle)

	syncCh chan func() // Sync: closures executed on the pump goroutine
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// pollBatch is the per-poll record cap.
const pollBatch = 512

// PartitionOffset pairs a partition with a consumer offset; SourceCommitted
// returns one per owned partition.
type PartitionOffset struct {
	Partition int
	Offset    int64
}

// OffsetReader is implemented by the ProcessorContext a Runtime hands its
// processor: it exposes the committed offsets of the runtime's source
// consumer, so a processor can checkpoint "state as of these offsets"
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

// Wakeups counts the pump cycles that started from a park, by what ended the
// park: records may have arrived (Data), a processor deadline passed
// (Deadline), or a Sync closure ran (Sync). A busy pump, which goes straight
// from one cycle to the next, adds nothing.
type Wakeups struct {
	Data, Deadline, Sync int64
}

// RuntimeOption customizes a Runtime.
type RuntimeOption func(*Runtime)

// WithRecordAtATime makes the runtime dispatch one record at a time: every
// polled record reaches the processor in its own ProcessBatch call, and every
// forwarded message is its own broker append. The equivalence suite uses it
// as the semantic reference the batched path must match; it is not meant for
// production topologies.
func WithRecordAtATime() RuntimeOption {
	return func(r *Runtime) { r.noBatch = true }
}

// NewRuntime prepares a runtime for topo over the given bus. appID
// namespaces the consumer group, so multiple runtimes with distinct IDs
// each receive the full stream, while runtimes sharing an ID split
// partitions like a Kafka Streams application scaled horizontally — whether
// they share a process (in-memory bus) or not (network bus).
func NewRuntime(bus transport.Bus, topo *Topology, appID string, opts ...RuntimeOption) (*Runtime, error) {
	r := &Runtime{
		topo:     topo,
		producer: bus.NewProducer(),
		syncCh:   make(chan func()),
		done:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(r)
	}
	c, err := bus.NewGroupConsumer(topo.topic, appID+"-"+topo.source)
	if err != nil {
		return nil, fmt.Errorf("streams: source %q: %w", topo.source, err)
	}
	r.consumer = c
	r.proc = topo.supplier()
	r.observer, _ = r.proc.(CycleObserver)
	r.punct, _ = r.proc.(Punctuator)
	r.ctx.rt = r
	return r, nil
}

// procContext implements ProcessorContext for the runtime's processor.
type procContext struct{ rt *Runtime }

var (
	_ ProcessorContext = (*procContext)(nil)
	_ OffsetReader     = (*procContext)(nil)
)

func (c *procContext) Now() time.Time { return time.Now() }

func (c *procContext) SourceCommitted() []PartitionOffset { return c.rt.SourceCommitted() }

func (c *procContext) Forward(msg Message) { c.ForwardBatch([]Message{msg}) }

func (c *procContext) ForwardBatch(msgs []Message) {
	r := c.rt
	if r.topo.sinkTopic == "" {
		return
	}
	for lo, step := 0, r.step(len(msgs)); lo < len(msgs); lo += step {
		if err := r.producer.SendBatch(r.topo.sinkTopic, msgs[lo:min(lo+step, len(msgs))]); err != nil {
			r.fail(err)
			return
		}
	}
}

// step is how many of n messages go into one call: all of them, or one under
// WithRecordAtATime.
func (r *Runtime) step(n int) int {
	if r.noBatch {
		return 1
	}
	return n
}

// Start initializes the processor and launches the pump goroutine. A
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

	if err := r.proc.Init(&r.ctx); err != nil {
		// Revert to never-started, so a subsequent Stop cleans up the
		// consumer without touching the unlaunched pump (nil cancel, open
		// done channel).
		r.mu.Lock()
		r.started = false
		r.mu.Unlock()
		return fmt.Errorf("streams: init %q: %w", r.topo.proc, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.pump(ctx)
	return nil
}

// pump is the single processing loop. It parks on the source topic's wake
// channel — it wakes the moment records arrive, like a blocking Kafka poll.
// The channel is armed before each poll so a record landing between the
// empty poll and the park is never missed.
func (r *Runtime) pump(ctx context.Context) {
	defer close(r.done)
	defer r.busy.Store(false)
	// One timer serves every park of this pump: stopped, drained and re-armed
	// per park, so an expiry nobody waited for (a wake or a Sync ended the
	// park first) is never taken for the next park's.
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	defer timer.Stop()
	var due time.Time // the processor's deadline, zero for none
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
		if !due.IsZero() {
			if now := time.Now(); !now.Before(due) {
				r.punctuate(now, false)
			}
		}

		wake := r.consumer.WaitChan()
		recs, err := r.consumer.TryPollInto(r.recScratch[:0], pollBatch)
		if err != nil {
			if !errors.Is(err, mq.ErrClosed) {
				r.fail(err)
			}
			return
		}
		r.recScratch = recs
		// Hand the fetch to the processor in one call (one per record under
		// WithRecordAtATime).
		for lo, step := 0, r.step(len(recs)); lo < len(recs); lo += step {
			if err := r.proc.ProcessBatch(recs[lo:min(lo+step, len(recs))]); err != nil {
				r.fail(err)
				return
			}
		}
		if r.failed() {
			return
		}
		if len(recs) > 0 {
			// End-of-cycle cut: every record fetched this cycle has been
			// dispatched, so observers see state consistent with the
			// committed offsets (even when ctx was cancelled mid-cycle —
			// the exit check at the loop top runs after this).
			if r.observer != nil {
				r.observer.AfterCycle()
			}
			// Records can bring a deadline forward (a first beat, a chain
			// back from idle), and a pump that stays busy never parks.
			due = r.deadline()
			continue
		}
		if r.consumer.TopicClosed() {
			// Drained and the topic is gone: no record can ever arrive
			// again (and its wake channel fires forever). End-of-stream:
			// punctuate the processor once, due or not, before exiting, so
			// a windowed processor's buffered final window is forwarded.
			r.punctuate(time.Now(), true)
			return
		}
		// Idle: park until records may have arrived, a Sync, or the
		// processor's deadline.
		due = r.deadline()
		var expiry <-chan time.Time
		if !due.IsZero() {
			timer.Reset(max(time.Until(due), 0))
			expiry = timer.C
		}
		r.busy.Store(false)
		select {
		case <-ctx.Done():
			return
		case fn := <-r.syncCh: // Sync while parked: run it, then a full cycle
			r.wakeSync.Add(1)
			fn()
		case <-wake:
			r.wakeData.Add(1)
		case <-expiry: // nil when no timer is armed
			r.wakeDeadline.Add(1)
		}
		if expiry != nil {
			stopTimer(timer)
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

// deadline returns the processor's deadline, zero when it has none.
func (r *Runtime) deadline() time.Time {
	if r.punct == nil {
		return time.Time{}
	}
	return r.punct.Deadline(time.Now())
}

// punctuate runs the processor's time-driven work if its deadline has passed
// at now — due or not when all is set (the end-of-stream flush).
func (r *Runtime) punctuate(now time.Time, all bool) {
	if r.punct == nil {
		return
	}
	if d := r.punct.Deadline(now); all || !d.IsZero() && !now.Before(d) {
		r.punct.Punctuate(now)
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

// Stop shuts the pump down, closes the processor and the consumer, and
// waits. It is idempotent, and safe on a never-started runtime: the consumer
// is still closed (leaving its group, releasing its partitions), though the
// processor — never initialized — is not Close()d.
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
		if err := r.proc.Close(); err != nil {
			r.fail(fmt.Errorf("streams: close %q: %w", r.topo.proc, err))
		}
	}
	r.consumer.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Freeze halts the pump goroutine without releasing anything: the processor
// is not closed and the consumer stays in its group, still owning its
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
// consistent with the source consumer's committed offsets, which makes Sync
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

// SourceCommitted returns the committed offsets of every partition of the
// source topic this runtime currently owns, sorted by partition.
func (r *Runtime) SourceCommitted() []PartitionOffset {
	var offs []PartitionOffset
	for _, p := range r.consumer.Assignment() {
		offs = append(offs, PartitionOffset{Partition: p, Offset: r.consumer.Committed(p)})
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i].Partition < offs[j].Partition })
	return offs
}

// Wakeups returns how many pump cycles have started from a park, by cause.
// Safe to call from any goroutine.
func (r *Runtime) Wakeups() Wakeups {
	return Wakeups{Data: r.wakeData.Load(), Deadline: r.wakeDeadline.Load(), Sync: r.wakeSync.Load()}
}

// Busy reports whether the pump is mid-cycle: fetched records may be in
// flight through the processor even though Lag reads 0 (group offsets commit at
// fetch time). Quiescence probes must require Lag() == 0 && !Busy().
func (r *Runtime) Busy() bool { return r.busy.Load() }

// Lag returns the number of records waiting in this runtime's source topic
// (0 when fully caught up). Drain logic uses it to detect quiescence.
func (r *Runtime) Lag() int64 { return r.consumer.Lag() }

// Done is closed when the pump goroutine exits.
func (r *Runtime) Done() <-chan struct{} { return r.done }

// Err returns the first error the runtime hit, if any.
func (r *Runtime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
