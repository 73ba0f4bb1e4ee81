package streams

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

func buildBroker(t *testing.T, topics ...string) *mq.Broker {
	t.Helper()
	b := mq.NewBroker()
	for _, name := range topics {
		if _, err := b.CreateTopic(name, 2); err != nil {
			t.Fatalf("CreateTopic(%q): %v", name, err)
		}
	}
	return b
}

func drain(t *testing.T, b *mq.Broker, topic string, want int, timeout time.Duration) []mq.Record {
	t.Helper()
	c, err := mq.NewConsumer(b, topic)
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer c.Close()
	deadline := time.Now().Add(timeout)
	var out []mq.Record
	for len(out) < want && time.Now().Before(deadline) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		recs, err := c.Poll(ctx, want)
		cancel()
		if err != nil {
			break
		}
		out = append(out, recs...)
	}
	return out
}

func TestBuilderValidation(t *testing.T) {
	_, err := NewTopology().Build()
	if !errors.Is(err, ErrEmptyTopology) {
		t.Fatalf("empty: err = %v, want ErrEmptyTopology", err)
	}

	_, err = NewTopology().Source("s", "t").Source("s", "t").Build()
	if !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate: err = %v, want ErrDuplicateNode", err)
	}

	_, err = NewTopology().Source("s", "t").Sink("k", "out", "ghost").Build()
	if !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("unknown parent: err = %v, want ErrUnknownParent", err)
	}

	_, err = NewTopology().Source("s", "t").Sink("k", "out").Build()
	if !errors.Is(err, ErrNoParents) {
		t.Fatalf("orphan sink: err = %v, want ErrNoParents", err)
	}

	// One source per topology: the pump parks on one consumer's wake.
	_, err = NewTopology().Source("s1", "in1").Source("s2", "in2").Build()
	if !errors.Is(err, errSecondSource) {
		t.Fatalf("second source: err = %v, want errSecondSource", err)
	}
}

func TestSourceToSinkPassthrough(t *testing.T) {
	b := buildBroker(t, "in", "out")
	topo, err := NewTopology().
		Source("src", "in").
		Sink("snk", "out", "src").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rt, err := NewRuntime(transport.WrapBroker(b), topo, "app")
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 10; i++ {
		p.Send("in", []byte{byte(i)}, []byte{byte(i)})
	}
	recs := drain(t, b, "out", 10, 2*time.Second)
	if len(recs) != 10 {
		t.Fatalf("sink received %d records, want 10", len(recs))
	}
}

func TestProcessorTransformsAndForwards(t *testing.T) {
	b := buildBroker(t, "in", "out")
	double := func() Processor {
		return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
			ctx.Forward(Message{Key: msg.Key, Value: append(msg.Value, msg.Value...), Ts: msg.Ts})
			return nil
		})
	}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("double", double, "src").
		Sink("snk", "out", "double").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	mq.NewProducer(b).Send("in", nil, []byte("ab"))
	recs := drain(t, b, "out", 1, 2*time.Second)
	if len(recs) != 1 || !bytes.Equal(recs[0].Value, []byte("abab")) {
		t.Fatalf("got %q, want \"abab\"", recs)
	}
}

func TestFanOutToMultipleChildren(t *testing.T) {
	b := buildBroker(t, "in", "out1", "out2")
	topo, _ := NewTopology().
		Source("src", "in").
		Sink("s1", "out1", "src").
		Sink("s2", "out2", "src").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	mq.NewProducer(b).Send("in", nil, []byte("x"))
	if got := drain(t, b, "out1", 1, 2*time.Second); len(got) != 1 {
		t.Fatalf("out1 got %d records, want 1", len(got))
	}
	if got := drain(t, b, "out2", 1, 2*time.Second); len(got) != 1 {
		t.Fatalf("out2 got %d records, want 1", len(got))
	}
}

func TestChainedProcessors(t *testing.T) {
	b := buildBroker(t, "in", "out")
	appendByte := func(tag byte) func() Processor {
		return func() Processor {
			return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
				ctx.Forward(Message{Value: append(msg.Value, tag)})
				return nil
			})
		}
	}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("p1", appendByte('1'), "src").
		Processor("p2", appendByte('2'), "p1").
		Sink("snk", "out", "p2").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	mq.NewProducer(b).Send("in", nil, []byte("x"))
	recs := drain(t, b, "out", 1, 2*time.Second)
	if len(recs) != 1 || string(recs[0].Value) != "x12" {
		t.Fatalf("got %q, want \"x12\"", recs)
	}
}

func TestProcessorErrorStopsRuntime(t *testing.T) {
	b := buildBroker(t, "in")
	boom := errors.New("boom")
	failing := func() Processor {
		return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
			return boom
		})
	}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("bad", failing, "src").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()

	mq.NewProducer(b).Send("in", nil, []byte("x"))
	select {
	case <-rt.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("runtime did not stop on processor error")
	}
	if err := rt.Stop(); !errors.Is(err, boom) {
		t.Fatalf("Stop err = %v, want boom", err)
	}
}

// punctuatingProcessor asks to run every 10 ms of the runtime's clock, from
// Init until cancel.
type punctuatingProcessor struct {
	mu        sync.Mutex
	fires     int
	next      time.Time
	cancelled bool
}

func (p *punctuatingProcessor) Init(ctx ProcessorContext) error {
	p.mu.Lock()
	p.next = ctx.Now().Add(10 * time.Millisecond)
	p.mu.Unlock()
	return nil
}
func (p *punctuatingProcessor) Process(Message) error { return nil }
func (p *punctuatingProcessor) Close() error          { return nil }

func (p *punctuatingProcessor) Deadline(time.Time) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancelled {
		return time.Time{}
	}
	return p.next
}

func (p *punctuatingProcessor) Punctuate(now time.Time) {
	p.mu.Lock()
	p.fires++
	p.next = now.Add(10 * time.Millisecond)
	p.mu.Unlock()
}

func (p *punctuatingProcessor) cancel() {
	p.mu.Lock()
	p.cancelled = true
	p.mu.Unlock()
}

func (p *punctuatingProcessor) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires
}

func TestPunctuationFiresPeriodically(t *testing.T) {
	b := buildBroker(t, "in")
	proc := &punctuatingProcessor{}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("tick", func() Processor { return proc }, "src").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for proc.count() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if proc.count() < 3 {
		t.Fatalf("punctuation fired %d times in 2s, want >= 3", proc.count())
	}
}

func TestPunctuationCancel(t *testing.T) {
	b := buildBroker(t, "in")
	proc := &punctuatingProcessor{}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("tick", func() Processor { return proc }, "src").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for proc.count() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	proc.cancel()
	n := proc.count()
	time.Sleep(50 * time.Millisecond)
	if proc.count() > n+1 { // one in-flight fire is tolerated
		t.Fatalf("punctuation kept firing after cancel: %d -> %d", n, proc.count())
	}
}

func TestStopIsIdempotentAndStopsPump(t *testing.T) {
	b := buildBroker(t, "in")
	topo, _ := NewTopology().Source("src", "in").Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := rt.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := rt.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	select {
	case <-rt.Done():
	default:
		t.Fatal("pump still running after Stop")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	b := buildBroker(t, "in")
	topo, _ := NewTopology().Source("src", "in").Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()
	if err := rt.Start(); err == nil {
		t.Fatal("second Start succeeded, want error")
	}
}

func TestTwoRuntimesDistinctAppIDsBothSeeStream(t *testing.T) {
	b := buildBroker(t, "in", "outA", "outB")
	mkTopo := func(out string) *Topology {
		topo, _ := NewTopology().Source("src", "in").Sink("snk", out, "src").Build()
		return topo
	}
	rtA, _ := NewRuntime(transport.WrapBroker(b), mkTopo("outA"), "appA")
	rtB, _ := NewRuntime(transport.WrapBroker(b), mkTopo("outB"), "appB")
	rtA.Start()
	rtB.Start()
	defer rtA.Stop()
	defer rtB.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 6; i++ {
		p.Send("in", []byte{byte(i)}, []byte{byte(i)})
	}
	if got := drain(t, b, "outA", 6, 2*time.Second); len(got) != 6 {
		t.Fatalf("appA saw %d records, want 6", len(got))
	}
	if got := drain(t, b, "outB", 6, 2*time.Second); len(got) != 6 {
		t.Fatalf("appB saw %d records, want 6", len(got))
	}
}

func TestSharedAppIDSplitsPartitions(t *testing.T) {
	b := buildBroker(t, "in", "out")
	mkTopo := func() *Topology {
		topo, _ := NewTopology().Source("src", "in").Sink("snk", "out", "src").Build()
		return topo
	}
	rt1, _ := NewRuntime(transport.WrapBroker(b), mkTopo(), "shared")
	rt2, _ := NewRuntime(transport.WrapBroker(b), mkTopo(), "shared")
	rt1.Start()
	rt2.Start()
	defer rt1.Stop()
	defer rt2.Stop()

	p := mq.NewProducer(b)
	const n = 40
	for i := 0; i < n; i++ {
		p.Send("in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	recs := drain(t, b, "out", n, 2*time.Second)
	if len(recs) != n {
		t.Fatalf("horizontally-scaled app emitted %d records, want exactly %d (no duplicates)", len(recs), n)
	}
}

func TestSharedAppIDMemberStopRebalances(t *testing.T) {
	// Stopping one member of a horizontally-scaled application mid-run
	// must hand its partitions to the survivor, which drains the rest of
	// the stream — the live runner's shard groups rely on this to tolerate
	// member shutdown without stranding records.
	b := buildBroker(t, "in", "out")
	mkTopo := func() *Topology {
		topo, _ := NewTopology().Source("src", "in").Sink("snk", "out", "src").Build()
		return topo
	}
	rt1, _ := NewRuntime(transport.WrapBroker(b), mkTopo(), "shared")
	rt2, _ := NewRuntime(transport.WrapBroker(b), mkTopo(), "shared")
	rt1.Start()
	rt2.Start()
	defer rt2.Stop()

	out, err := mq.NewConsumer(b, "out")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer out.Close()
	collect := func(want int) int {
		deadline := time.Now().Add(2 * time.Second)
		got := 0
		for got < want && time.Now().Before(deadline) {
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			recs, err := out.Poll(ctx, want-got)
			cancel()
			if err != nil {
				break
			}
			got += len(recs)
		}
		return got
	}

	p := mq.NewProducer(b)
	const half = 20
	for i := 0; i < half; i++ {
		p.Send("in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	if got := collect(half); got != half {
		t.Fatalf("two members emitted %d records, want %d", got, half)
	}

	if err := rt1.Stop(); err != nil {
		t.Fatalf("member Stop: %v", err)
	}
	for i := half; i < 2*half; i++ {
		p.Send("in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	if got := collect(half); got != half {
		t.Fatalf("survivor emitted %d records after rebalance, want %d (no loss)", got, half)
	}
	if lag := rt2.Lag(); lag != 0 {
		t.Fatalf("survivor lag = %d after drain, want 0", lag)
	}
	// No duplicates trickle in after the fact.
	time.Sleep(50 * time.Millisecond)
	if recs, _ := out.TryPoll(8); len(recs) != 0 {
		t.Fatalf("%d duplicate records appeared after the full drain", len(recs))
	}
}

// bufferingProcessor holds every message until a window far beyond the test
// ends: only the end-of-stream punctuation can flush it.
type bufferingProcessor struct {
	mu    sync.Mutex
	buf   []Message
	ctx   ProcessorContext
	flush time.Time
}

func (p *bufferingProcessor) Init(ctx ProcessorContext) error {
	p.ctx = ctx
	p.flush = ctx.Now().Add(time.Hour)
	return nil
}
func (p *bufferingProcessor) Deadline(time.Time) time.Time { return p.flush }
func (p *bufferingProcessor) Punctuate(now time.Time) {
	p.flush = now.Add(time.Hour)
	p.mu.Lock()
	buf := p.buf
	p.buf = nil
	p.mu.Unlock()
	for _, m := range buf {
		p.ctx.Forward(m)
	}
}
func (p *bufferingProcessor) Process(msg Message) error {
	p.mu.Lock()
	p.buf = append(p.buf, msg)
	p.mu.Unlock()
	return nil
}
func (p *bufferingProcessor) Close() error { return nil }

func TestEndOfStreamFlushesFinalWindow(t *testing.T) {
	// Deleting the input topic is the end-of-stream signal: the pump must
	// fire pending punctuations once — flushing a windowed processor's
	// buffered final window to the sink — before exiting, instead of
	// dropping it.
	b := buildBroker(t, "in", "out")
	proc := &bufferingProcessor{}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("window", func() Processor { return proc }, "src").
		Sink("snk", "out", "window").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 5; i++ {
		p.Send("in", nil, []byte{byte(i)})
	}
	// Wait until the processor has buffered everything, then end the stream.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		proc.mu.Lock()
		n := len(proc.buf)
		proc.mu.Unlock()
		if n == 5 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.DeleteTopic("in"); err != nil {
		t.Fatalf("DeleteTopic: %v", err)
	}
	select {
	case <-rt.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("pump did not exit after its topic closed")
	}
	if got := drain(t, b, "out", 5, 2*time.Second); len(got) != 5 {
		t.Fatalf("final window forwarded %d records, want 5", len(got))
	}
}

type initFailProcessor struct{ closed bool }

func (p *initFailProcessor) Init(ProcessorContext) error { return errors.New("init boom") }
func (p *initFailProcessor) Process(Message) error       { return nil }
func (p *initFailProcessor) Close() error                { p.closed = true; return nil }

func TestStopAfterFailedStartDoesNotPanic(t *testing.T) {
	// A Start that fails during processor Init must leave the runtime in
	// the never-started state: Stop cleans up the consumers (releasing
	// group membership) without touching the unlaunched pump.
	b := buildBroker(t, "in")
	ok := &punctuatingProcessor{}
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("fine", func() Processor { return ok }, "src").
		Processor("bad", func() Processor { return &initFailProcessor{} }, "fine").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "shared")
	survivor, _ := NewRuntime(transport.WrapBroker(b), func() *Topology {
		topo, _ := NewTopology().Source("src", "in").Build()
		return topo
	}(), "shared")

	if err := rt.Start(); err == nil {
		t.Fatal("Start succeeded despite failing Init")
	}
	if err := rt.Stop(); err != nil {
		t.Fatalf("Stop after failed Start: %v", err)
	}
	survivor.Start()
	defer survivor.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 8; i++ {
		p.Send("in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && survivor.Lag() > 0 {
		time.Sleep(time.Millisecond)
	}
	if lag := survivor.Lag(); lag != 0 {
		t.Fatalf("survivor lag = %d: the failed member still owns partitions", lag)
	}
}

func TestStopBeforeStartReleasesGroupMembership(t *testing.T) {
	// A runtime that was built but never started still joined its consumer
	// group; Stop must make it leave so its partitions are not stranded —
	// the live runner's shard groups rely on this when a group build fails
	// partway.
	b := buildBroker(t, "in")
	mkTopo := func() *Topology {
		topo, _ := NewTopology().Source("src", "in").Build()
		return topo
	}
	never, _ := NewRuntime(transport.WrapBroker(b), mkTopo(), "shared")
	survivor, _ := NewRuntime(transport.WrapBroker(b), mkTopo(), "shared")
	if err := never.Stop(); err != nil {
		t.Fatalf("Stop before Start: %v", err)
	}
	if err := never.Start(); err == nil {
		t.Fatal("Start after Stop succeeded, want error")
	}
	survivor.Start()
	defer survivor.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 8; i++ {
		p.Send("in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && survivor.Lag() > 0 {
		time.Sleep(time.Millisecond)
	}
	if lag := survivor.Lag(); lag != 0 {
		t.Fatalf("survivor lag = %d: the never-started member still owns partitions", lag)
	}
}

func BenchmarkPassthroughPipeline(b *testing.B) {
	br := mq.NewBroker()
	br.CreateTopic("in", 1, mq.WithRetention(4096))
	br.CreateTopic("out", 1, mq.WithRetention(4096))
	topo, _ := NewTopology().Source("src", "in").Sink("snk", "out", "src").Build()
	rt, _ := NewRuntime(transport.WrapBroker(br), topo, "bench")
	rt.Start()
	defer rt.Stop()
	sinkDrain, _ := mq.NewGroupConsumer(br, "out", "bench-drain")
	defer sinkDrain.Close()
	p := mq.NewProducer(br)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Send("in", nil, val); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			for sinkDrain.Lag() > 0 {
				sinkDrain.TryPoll(256)
			}
		}
	}
}

// tickingProcessor has a deadline every 500 µs: each one wakes an idle pump
// for a cycle that fetches nothing.
type tickingProcessor struct{ next time.Time }

func (p *tickingProcessor) Init(ctx ProcessorContext) error { p.next = ctx.Now(); return nil }
func (p *tickingProcessor) Process(Message) error           { return nil }
func (p *tickingProcessor) Close() error                    { return nil }
func (p *tickingProcessor) Deadline(time.Time) time.Time    { return p.next }
func (p *tickingProcessor) Punctuate(now time.Time)         { p.next = now.Add(500 * time.Microsecond) }

// TestIdlePumpAllocatesNothing pins the pump's idle cycle — arm the wake
// channel, poll the group consumer, find nothing, park on the deadline timer,
// wake, punctuate — at zero allocations: the pump keeps one timer and re-arms
// it, and the consumer keeps its assignment snapshot. The pump runs on its own
// goroutine, so the measured function only sleeps across a dozen of its
// cycles (AllocsPerRun counts every goroutine's allocations); the wake count
// proves the cycles ran.
func TestIdlePumpAllocatesNothing(t *testing.T) {
	b := buildBroker(t, "in", "out")
	topo, err := NewTopology().Source("src", "in").
		Processor("tick", func() Processor { return &tickingProcessor{} }, "src").
		Sink("snk", "out", "tick").Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rt, err := NewRuntime(transport.WrapBroker(b), topo, "app")
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Stop()
	before := rt.Wakeups().Deadline
	if allocs := testing.AllocsPerRun(20, func() { time.Sleep(6 * time.Millisecond) }); allocs != 0 {
		t.Fatalf("an idle pump allocated %.0f objects per 6 ms (about a dozen cycles), want 0", allocs)
	}
	if woke := rt.Wakeups().Deadline - before; woke < 20 {
		t.Fatalf("the pump woke %d times on its deadline in 21 × 6 ms, want a cycle per 500 µs", woke)
	}
}

// A pump whose processors report no deadline parks without a timer: it
// wakes once per event — a record, a Sync — and never on its own.
func TestParkedPumpWakesOnEvents(t *testing.T) {
	b := buildBroker(t, "in", "out")
	topo, _ := NewTopology().Source("src", "in").Sink("snk", "out", "src").Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	time.Sleep(30 * time.Millisecond)
	if w := rt.Wakeups(); w != (Wakeups{}) {
		t.Fatalf("an idle pump with no deadline woke %+v, want none", w)
	}
	mq.NewProducer(b).Send("in", nil, []byte("x"))
	if recs := drain(t, b, "out", 1, 2*time.Second); len(recs) != 1 {
		t.Fatalf("forwarded %d records, want 1", len(recs))
	}
	if err := rt.Sync(func() {}); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if w := rt.Wakeups(); w.Data < 1 || w.Sync != 1 || w.Deadline != 0 {
		t.Fatalf("wake-ups %+v after one record and one Sync, want data ≥ 1, sync 1, deadline 0", w)
	}
}

// TestFanInMergesParents wires a diamond under the one source: two branches
// both feed one merge processor, so each source record reaches the sink once
// per branch.
func TestFanInMergesParents(t *testing.T) {
	b := buildBroker(t, "in", "out")
	pass := func() Processor {
		return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
			ctx.Forward(msg)
			return nil
		})
	}
	topo, err := NewTopology().
		Source("src", "in").
		Processor("left", pass, "src").
		Processor("right", pass, "src").
		Processor("merge", pass, "left", "right").
		Sink("snk", "out", "merge").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	p := mq.NewProducer(b)
	p.Send("in", nil, []byte("a"))
	p.Send("in", nil, []byte("b"))
	recs := drain(t, b, "out", 4, 2*time.Second)
	if len(recs) != 4 {
		t.Fatalf("merged %d records, want 4", len(recs))
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[string(r.Value)]++
	}
	if counts["a"] != 2 || counts["b"] != 2 {
		t.Fatalf("merged values %v, want a and b twice each", counts)
	}
}

// TestDSLFilterMap chains a processor that drops odd records into one that
// maps each survivor to a new value: the filter-then-map pipeline, built
// from plain TopologyBuilder processors.
func TestDSLFilterMap(t *testing.T) {
	b := buildBroker(t, "in", "out")
	filter := func() Processor {
		return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
			if msg.Value[0]%2 == 0 {
				ctx.Forward(msg)
			}
			return nil
		})
	}
	scale := func() Processor {
		return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
			ctx.Forward(Message{Key: msg.Key, Value: []byte{msg.Value[0] * 10}})
			return nil
		})
	}
	topo, err := NewTopology().
		Source("src", "in").
		Processor("filter", filter, "src").
		Processor("map", scale, "filter").
		Sink("snk", "out", "map").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	p := mq.NewProducer(b)
	for i := byte(0); i < 6; i++ {
		p.Send("in", nil, []byte{i})
	}
	recs := drain(t, b, "out", 3, 2*time.Second)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (evens only)", len(recs))
	}
	sum := 0
	for _, r := range recs {
		sum += int(r.Value[0])
	}
	if sum != 0+20+40 {
		t.Fatalf("mapped values sum = %d, want 60", sum)
	}
}

// TestDSLFlatMap has one processor forward many records per input: a record
// carrying n becomes n records.
func TestDSLFlatMap(t *testing.T) {
	b := buildBroker(t, "in", "out")
	expand := func() Processor {
		return NewProcessorFunc(func(ctx ProcessorContext, msg Message) error {
			for i := 0; i < int(msg.Value[0]); i++ {
				ctx.Forward(Message{Value: []byte{byte(i)}})
			}
			return nil
		})
	}
	topo, err := NewTopology().
		Source("src", "in").
		Processor("expand", expand, "src").
		Sink("snk", "out", "expand").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	mq.NewProducer(b).Send("in", nil, []byte{4})
	recs := drain(t, b, "out", 4, 2*time.Second)
	if len(recs) != 4 {
		t.Fatalf("expand emitted %d, want 4", len(recs))
	}
}
