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
// polls the topology's source topic, hands each polled batch to the
// processor, and punctuates it when its deadline has passed. It models a
// single Kafka Streams instance on one edge node; with a network bus the
// instance really is remote from its broker.
//
// The pump is event-driven. A cycle that fetches nothing parks it on three
// things: the source consumer's WaitChan (records may have arrived), Sync,
// and the processor's deadline — one timer, armed only when the processor is
// a Punctuator and reports one.
//
// A driven runtime (Driven) has no pump goroutine: its caller runs the same
// cycle one step at a time (Step), on the caller's thread and clock.
type Runtime struct {
	topo    *Topology
	noBatch bool         // WithRecordAtATime: one record per ProcessBatch, one message per append
	clock   vclock.Clock // every instant the runtime and its processor read
	driven  bool         // Driven: Start launches no pump; the caller runs Step
	// due is the processor's deadline as the pump (or Step) last read it,
	// zero for none; owned by the pump goroutine, or Step's caller.
	due time.Time

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

// Driven makes the runtime a driven one, reading every instant from clock: its
// Start initializes the processor but launches no pump goroutine, and the
// caller runs the pump's cycle itself with Step, from one goroutine. The
// simulator drives the engine's members this way in virtual time.
func Driven(clock vclock.Clock) RuntimeOption {
	return func(r *Runtime) {
		r.clock = clock
		r.driven = true
	}
}

// NewRuntime prepares a runtime for topo over the given bus. appID
// namespaces the consumer group, so multiple runtimes with distinct IDs
// each receive the full stream, while runtimes sharing an ID split
// partitions like a Kafka Streams application scaled horizontally — whether
// they share a process (in-memory bus) or not (network bus).
func NewRuntime(bus transport.Bus, topo *Topology, appID string, opts ...RuntimeOption) (*Runtime, error) {
	r := &Runtime{
		topo:     topo,
		clock:    vclock.WallClock{},
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

func (c *procContext) Now() time.Time { return c.rt.clock.Now() }

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
	if r.driven {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.pump(ctx)
	return nil
}

// pump is the single processing loop: cycle after cycle, parked whenever one
// fetches nothing. It parks on the source topic's wake channel — it wakes the
// moment records arrive, like a blocking Kafka poll. The channel is armed
// before each poll so a record landing between the empty poll and the park is
// never missed.
func (r *Runtime) pump(ctx context.Context) {
	defer close(r.done)
	defer r.busy.Store(false)
	// One timer serves every park of this pump: stopped, drained and re-armed
	// per park, so an expiry nobody waited for (a wake or a Sync ended the
	// park first) is never taken for the next park's.
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	defer timer.Stop()
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
		wake := r.consumer.WaitChan()
		n, ok := r.cycle()
		if !ok {
			return
		}
		if n > 0 {
			// Records can bring a deadline forward (a first beat, a chain
			// back from idle), and a pump that stays busy never parks.
			r.due = r.deadline()
			continue
		}
		if r.consumer.TopicClosed() {
			// Drained and the topic is gone: no record can ever arrive
			// again (and its wake channel fires forever). End-of-stream:
			// punctuate the processor once, due or not, before exiting, so
			// a windowed processor's buffered final window is forwarded.
			r.punctuate(r.clock.Now(), true)
			return
		}
		// Idle: park until records may have arrived, a Sync, or the
		// processor's deadline.
		r.due = r.deadline()
		var expiry <-chan time.Time
		if !r.due.IsZero() {
			timer.Reset(max(r.due.Sub(r.clock.Now()), 0))
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

// cycle is one poll → process → punctuate round, the one both ways of
// running a runtime repeat: the pump in a loop, a caller through Step. It
// fetches what the source has ready, hands the fetch to the processor in one
// call (one per record under WithRecordAtATime), passes the AfterCycle cut,
// and punctuates the processor if r.due has passed and the deadline read now
// has too — the records may have moved it. It returns how many records it
// dispatched, and false once the runtime must stop: a failure, or a closed
// broker.
func (r *Runtime) cycle() (int, bool) {
	recs, err := r.consumer.TryPollInto(r.recScratch[:0], pollBatch)
	if err != nil {
		if !errors.Is(err, mq.ErrClosed) {
			r.fail(err)
		}
		return 0, false
	}
	r.recScratch = recs
	for lo, step := 0, r.step(len(recs)); lo < len(recs); lo += step {
		if err := r.proc.ProcessBatch(recs[lo:min(lo+step, len(recs))]); err != nil {
			r.fail(err)
			return 0, false
		}
	}
	if r.failed() {
		return 0, false
	}
	if len(recs) > 0 && r.observer != nil {
		// End-of-cycle cut: every record fetched this cycle has been
		// dispatched, so observers see state consistent with the committed
		// offsets (even when the pump was cancelled mid-cycle — its exit
		// check runs after this).
		r.observer.AfterCycle()
	}
	if !r.due.IsZero() {
		if now := r.clock.Now(); !now.Before(r.due) {
			r.punctuate(now, false)
		}
	}
	return len(recs), true
}

// Step runs one cycle of a driven runtime at its clock's current instant —
// punctuating if the deadline the previous Step returned has passed, as the
// pump does with the one it last read — and returns the processor's next
// deadline, zero for none. The caller steps the runtime when records reach
// its source topic and when the returned deadline comes, never concurrently,
// and only between Start and Stop.
func (r *Runtime) Step() time.Time {
	_, ok := r.cycle()
	r.due = time.Time{}
	if ok {
		r.due = r.deadline()
	}
	return r.due
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
	return r.punct.Deadline(r.clock.Now())
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
		if r.cancel != nil {
			r.cancel()
			<-r.done
		}
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
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
}

// Sync runs fn on the pump goroutine between processing cycles — at a point
// where every fetched record has been dispatched and no fetch is in flight —
// and returns once fn has completed. Processor state observed by fn is
// consistent with the source consumer's committed offsets, which makes Sync
// the barrier primitive for checkpoint-before-rebalance. It fails if the
// pump is not running (never started, stopped, frozen, or failed). A driven
// runtime runs fn at once on the caller's goroutine — the one that runs Step,
// which is between cycles whenever it is not inside Step.
func (r *Runtime) Sync(fn func()) error {
	r.mu.Lock()
	running := r.started && !r.stopped && !r.frozen
	r.mu.Unlock()
	if !running {
		return errors.New("streams: runtime not running")
	}
	if r.driven {
		fn() // Step's goroutine, which is between cycles whenever it is here
		return nil
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

// Done is closed when the pump goroutine exits (never, on a driven runtime).
func (r *Runtime) Done() <-chan struct{} { return r.done }

// Err returns the first error the runtime hit, if any.
func (r *Runtime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
