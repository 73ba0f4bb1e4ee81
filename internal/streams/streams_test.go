package streams

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
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

// send appends one record to topic through SendBatch.
func send(p *mq.Producer, topic string, key, value []byte) error {
	return p.SendBatch(topic, []mq.Record{{Key: key, Value: value}})
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
		recs, err := c.PollInto(ctx, nil, want)
		cancel()
		if err != nil {
			break
		}
		out = append(out, recs...)
	}
	return out
}

// testProc is a processor that runs fn on every batch the pump hands it.
type testProc struct {
	ctx ProcessorContext
	fn  func(ctx ProcessorContext, msgs []Message) error
}

func (p *testProc) Init(ctx ProcessorContext) error   { p.ctx = ctx; return nil }
func (p *testProc) ProcessBatch(msgs []Message) error { return p.fn(p.ctx, msgs) }
func (p *testProc) Close() error                      { return nil }

// procOf supplies a testProc running fn.
func procOf(fn func(ctx ProcessorContext, msgs []Message) error) func() Processor {
	return func() Processor { return &testProc{fn: fn} }
}

// pass forwards every batch whole.
var pass = procOf(func(ctx ProcessorContext, msgs []Message) error {
	ctx.ForwardBatch(msgs)
	return nil
})

// passTopo is the source → pass-through processor pipe on topic in, with a
// sink into out unless out is empty.
func passTopo(t testing.TB, out string) *Topology {
	t.Helper()
	b := NewTopology().Source("src", "in").Processor("pass", pass, "src")
	if out != "" {
		b = b.Sink("snk", out, "pass")
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func TestBuilderValidation(t *testing.T) {
	src := func() *TopologyBuilder { return NewTopology().Source("s", "in") }
	proc := func() *TopologyBuilder { return src().Processor("p", pass, "s") }
	for _, tc := range []struct {
		name string
		b    *TopologyBuilder
		want error  // nil: accepted
		node string // the node a shape error names
	}{
		{"source → processor", proc(), nil, ""},
		{"source → processor → sink", proc().Sink("k", "out", "p"), nil, ""},
		{"empty", NewTopology(), ErrEmptyTopology, ""},
		{"no processor", src(), errShape, "s"},
		{"second source", proc().Source("s2", "in2"), errShape, "s2"},
		{"second processor", proc().Processor("p2", pass, "s"), errShape, "p2"},
		{"processor fed by a non-source", src().Processor("p", pass, "ghost"), errShape, "p"},
		{"sink fed by the source", proc().Sink("k", "out", "s"), errShape, "k"},
		{"second sink", proc().Sink("k", "out", "p").Sink("k2", "out2", "p"), errShape, "k2"},
	} {
		_, err := tc.b.Build()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: Build: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		} else if tc.node != "" && !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.node)) {
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.node)
		}
	}
}

func TestSourceToSinkPassthrough(t *testing.T) {
	b := buildBroker(t, "in", "out")
	rt, err := NewRuntime(transport.WrapBroker(b), passTopo(t, "out"), "app")
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 10; i++ {
		send(p, "in", []byte{byte(i)}, []byte{byte(i)})
	}
	recs := drain(t, b, "out", 10, 2*time.Second)
	if len(recs) != 10 {
		t.Fatalf("sink received %d records, want 10", len(recs))
	}
}

func TestProcessorTransformsAndForwards(t *testing.T) {
	b := buildBroker(t, "in", "out")
	double := procOf(func(ctx ProcessorContext, msgs []Message) error {
		for _, msg := range msgs {
			ctx.Forward(Message{Key: msg.Key, Value: append(msg.Value, msg.Value...)})
		}
		return nil
	})
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("double", double, "src").
		Sink("snk", "out", "double").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()
	defer rt.Stop()

	send(mq.NewProducer(b), "in", nil, []byte("ab"))
	recs := drain(t, b, "out", 1, 2*time.Second)
	if len(recs) != 1 || !bytes.Equal(recs[0].Value, []byte("abab")) {
		t.Fatalf("got %q, want \"abab\"", recs)
	}
}

func TestProcessorErrorStopsRuntime(t *testing.T) {
	b := buildBroker(t, "in")
	boom := errors.New("boom")
	failing := procOf(func(ProcessorContext, []Message) error { return boom })
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("bad", failing, "src").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "app")
	rt.Start()

	send(mq.NewProducer(b), "in", nil, []byte("x"))
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
func (p *punctuatingProcessor) ProcessBatch([]Message) error { return nil }
func (p *punctuatingProcessor) Close() error                 { return nil }

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
	rt, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, ""), "app")
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
	rt, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, ""), "app")
	rt.Start()
	defer rt.Stop()
	if err := rt.Start(); err == nil {
		t.Fatal("second Start succeeded, want error")
	}
}

func TestTwoRuntimesDistinctAppIDsBothSeeStream(t *testing.T) {
	b := buildBroker(t, "in", "outA", "outB")
	rtA, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "outA"), "appA")
	rtB, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "outB"), "appB")
	rtA.Start()
	rtB.Start()
	defer rtA.Stop()
	defer rtB.Stop()

	p := mq.NewProducer(b)
	for i := 0; i < 6; i++ {
		send(p, "in", []byte{byte(i)}, []byte{byte(i)})
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
	rt1, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "out"), "shared")
	rt2, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "out"), "shared")
	rt1.Start()
	rt2.Start()
	defer rt1.Stop()
	defer rt2.Stop()

	p := mq.NewProducer(b)
	const n = 40
	for i := 0; i < n; i++ {
		send(p, "in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
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
	rt1, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "out"), "shared")
	rt2, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "out"), "shared")
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
			recs, err := out.PollInto(ctx, nil, want-got)
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
		send(p, "in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	if got := collect(half); got != half {
		t.Fatalf("two members emitted %d records, want %d", got, half)
	}

	if err := rt1.Stop(); err != nil {
		t.Fatalf("member Stop: %v", err)
	}
	for i := half; i < 2*half; i++ {
		send(p, "in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	if got := collect(half); got != half {
		t.Fatalf("survivor emitted %d records after rebalance, want %d (no loss)", got, half)
	}
	if lag := rt2.Lag(); lag != 0 {
		t.Fatalf("survivor lag = %d after drain, want 0", lag)
	}
	// No duplicates trickle in after the fact.
	time.Sleep(50 * time.Millisecond)
	if recs, _ := out.TryPollInto(nil, 8); len(recs) != 0 {
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
func (p *bufferingProcessor) ProcessBatch(msgs []Message) error {
	p.mu.Lock()
	p.buf = append(p.buf, msgs...)
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
		send(p, "in", nil, []byte{byte(i)})
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

type initFailProcessor struct{}

func (initFailProcessor) Init(ProcessorContext) error  { return errors.New("init boom") }
func (initFailProcessor) ProcessBatch([]Message) error { return nil }
func (initFailProcessor) Close() error                 { return nil }

func TestStopAfterFailedStartDoesNotPanic(t *testing.T) {
	// A Start that fails during processor Init must leave the runtime in
	// the never-started state: Stop cleans up the consumer (releasing
	// group membership) without touching the unlaunched pump.
	b := buildBroker(t, "in")
	topo, _ := NewTopology().
		Source("src", "in").
		Processor("bad", func() Processor { return initFailProcessor{} }, "src").
		Build()
	rt, _ := NewRuntime(transport.WrapBroker(b), topo, "shared")
	survivor, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, ""), "shared")

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
		send(p, "in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
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
	never, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, ""), "shared")
	survivor, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, ""), "shared")
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
		send(p, "in", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
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
	rt, _ := NewRuntime(transport.WrapBroker(br), passTopo(b, "out"), "bench")
	rt.Start()
	defer rt.Stop()
	sinkDrain, _ := mq.NewGroupConsumer(br, "out", "bench-drain")
	defer sinkDrain.Close()
	p := mq.NewProducer(br)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send(p, "in", nil, val); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			for sinkDrain.Lag() > 0 {
				sinkDrain.TryPollInto(nil, 256)
			}
		}
	}
}

// tickingProcessor has a deadline every 500 µs: each one wakes an idle pump
// for a cycle that fetches nothing.
type tickingProcessor struct{ next time.Time }

func (p *tickingProcessor) Init(ctx ProcessorContext) error { p.next = ctx.Now(); return nil }
func (p *tickingProcessor) ProcessBatch([]Message) error    { return nil }
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
	rt, _ := NewRuntime(transport.WrapBroker(b), passTopo(t, "out"), "app")
	rt.Start()
	defer rt.Stop()

	time.Sleep(30 * time.Millisecond)
	if w := rt.Wakeups(); w != (Wakeups{}) {
		t.Fatalf("an idle pump with no deadline woke %+v, want none", w)
	}
	send(mq.NewProducer(b), "in", nil, []byte("x"))
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

// TestDSLFlatMap has one processor forward many records per input: a record
// carrying n becomes n records.
func TestDSLFlatMap(t *testing.T) {
	b := buildBroker(t, "in", "out")
	expand := procOf(func(ctx ProcessorContext, msgs []Message) error {
		for _, msg := range msgs {
			for i := 0; i < int(msg.Value[0]); i++ {
				ctx.Forward(Message{Value: []byte{byte(i)}})
			}
		}
		return nil
	})
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

	send(mq.NewProducer(b), "in", nil, []byte{4})
	recs := drain(t, b, "out", 4, 2*time.Second)
	if len(recs) != 4 {
		t.Fatalf("expand emitted %d, want 4", len(recs))
	}
}

// countingBus counts the SendBatch calls of every producer it hands out.
type countingBus struct {
	transport.Bus
	sends *int64
}

func (b countingBus) NewProducer() transport.Producer {
	return countingProducer{b.Bus.NewProducer(), b.sends}
}

type countingProducer struct {
	transport.Producer
	sends *int64
}

func (p countingProducer) SendBatch(topic string, recs []mq.Record) error {
	*p.sends++ // the one pump goroutine sends
	return p.Producer.SendBatch(topic, recs)
}

// TestRecordAtATimeDispatchShape pins what WithRecordAtATime means: a polled
// batch of N records reaches the processor as N calls of length 1, and N
// messages forwarded in one batch reach the bus as N appends. Without the
// option the same input arrives in calls longer than 1, and the forwarded
// batch is one append.
func TestRecordAtATimeDispatchShape(t *testing.T) {
	const n = 64
	for _, perRecord := range []bool{true, false} {
		b := mq.NewBroker()
		for _, topic := range []string{"in", "out"} {
			if _, err := b.CreateTopic(topic, 1); err != nil {
				t.Fatalf("CreateTopic(%q): %v", topic, err)
			}
		}
		recs := make([]mq.Record, n)
		for i := range recs {
			recs[i] = mq.Record{Key: []byte("k"), Value: []byte{byte(i)}}
		}
		if err := mq.NewProducer(b).SendBatch("in", recs); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		var calls []int    // the length of every ProcessBatch call
		var held []Message // copies of every message, forwarded once all n are in
		rec := procOf(func(ctx ProcessorContext, msgs []Message) error {
			calls = append(calls, len(msgs))
			for _, m := range msgs {
				held = append(held, Message{Key: bytes.Clone(m.Key), Value: bytes.Clone(m.Value)})
			}
			if len(held) == n {
				ctx.ForwardBatch(held)
			}
			return nil
		})
		topo, err := NewTopology().Source("src", "in").Processor("rec", rec, "src").Sink("snk", "out", "rec").Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		var sends int64
		var opts []RuntimeOption
		if perRecord {
			opts = append(opts, WithRecordAtATime())
		}
		rt, err := NewRuntime(countingBus{transport.WrapBroker(b), &sends}, topo, "app", opts...)
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		if err := rt.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		got := drain(t, b, "out", n, 2*time.Second)
		if err := rt.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		if len(got) != n {
			t.Fatalf("perRecord=%v: forwarded %d records, want %d", perRecord, len(got), n)
		}
		for i, r := range got {
			if r.Value[0] != byte(i) {
				t.Fatalf("perRecord=%v: record %d carries %d, want input order", perRecord, i, r.Value[0])
			}
		}
		longest := 0
		for _, c := range calls {
			longest = max(longest, c)
		}
		if perRecord && (len(calls) != n || longest != 1 || sends != n) {
			t.Fatalf("record at a time: %d calls, longest %d, %d appends; want %d calls of 1 and %d appends", len(calls), longest, sends, n, n)
		}
		if !perRecord && (longest < 2 || sends != 1) {
			t.Fatalf("batched: calls %v, %d appends; want a call longer than 1 and one append", calls, sends)
		}
	}
}
