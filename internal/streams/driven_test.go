package streams

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/vclock"
)

// scriptEpoch anchors the deadlines scriptProc reads off its records.
var scriptEpoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

// scriptProc records what a runtime hands it. A record valued "!n" sets its
// deadline to scriptEpoch + n ms; a punctuation notes the deadline it served
// and forwards everything buffered since the previous one as one message.
type scriptProc struct {
	ctx     ProcessorContext
	batches [][]string
	puncts  []time.Time
	buf     [][]byte
	due     time.Time
	seen    int
}

func (p *scriptProc) Init(ctx ProcessorContext) error { p.ctx = ctx; return nil }
func (p *scriptProc) Close() error                    { return nil }

func (p *scriptProc) ProcessBatch(msgs []Message) error {
	batch := make([]string, len(msgs))
	for i, m := range msgs {
		batch[i] = string(m.Value)
		p.buf = append(p.buf, m.Value)
		if ms, ok := bytes.CutPrefix(m.Value, []byte("!")); ok {
			n, err := strconv.Atoi(string(ms))
			if err != nil {
				return err
			}
			p.due = scriptEpoch.Add(time.Duration(n) * time.Millisecond)
		}
	}
	p.batches = append(p.batches, batch)
	p.seen += len(msgs)
	return nil
}

func (p *scriptProc) Deadline(time.Time) time.Time { return p.due }

func (p *scriptProc) Punctuate(time.Time) {
	p.puncts = append(p.puncts, p.due)
	p.ctx.Forward(Message{Value: bytes.Join(p.buf, []byte(","))})
	p.buf, p.due = nil, time.Time{}
}

// scriptRun feeds the script's records to a fresh topology over its own
// broker, runs it to completion with run, and returns what its processor saw
// and what it forwarded.
func scriptRun(t *testing.T, records int, opts []RuntimeOption, run func(rt *Runtime, p *scriptProc)) (*scriptProc, []string) {
	t.Helper()
	b := mq.NewBroker()
	for _, name := range []string{"in", "out"} {
		if _, err := b.CreateTopic(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	prod := mq.NewProducer(b)
	for i := 0; i < records; i++ {
		v := fmt.Sprintf("r%d", i)
		if i%100 == 99 {
			v = fmt.Sprintf("!%d", i)
		}
		if err := send(prod, "in", nil, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	p := &scriptProc{}
	topo, err := NewTopology().Source("src", "in").
		Processor("script", func() Processor { return p }, "src").
		Sink("snk", "out", "script").Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(transport.WrapBroker(b), topo, "app", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	run(rt, p)
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rec := range drain(t, b, "out", len(p.puncts), time.Second) {
		out = append(out, string(rec.Value))
	}
	return p, out
}

// TestDrivenStepMatchesPump feeds one topology the same records twice: pumped
// on the wall clock, and driven on a virtual one — Step called as the
// simulator's loop calls it, again while the deadline it returns has
// passed. Both must hand the processor the same batches, punctuate it for the
// same deadlines and forward the same output: the driven step is the pump's
// cycle, not a model of it. Every deadline lies in the past of both clocks,
// so each is served at the end of the cycle after the one that set it.
func TestDrivenStepMatchesPump(t *testing.T) {
	const records = 1300 // three polls: 512, 512, 276
	pumped, pumpedOut := scriptRun(t, records, nil, func(rt *Runtime, p *scriptProc) {
		deadline := time.Now().Add(5 * time.Second)
		for done := false; !done; {
			if time.Now().After(deadline) {
				t.Fatal("pumped runtime never finished the script")
			}
			if err := rt.Sync(func() { done = p.seen == records && p.due.IsZero() }); err != nil {
				t.Fatal(err)
			}
		}
	})
	sim := vclock.NewSim(scriptEpoch.Add(time.Hour))
	driven, drivenOut := scriptRun(t, records, []RuntimeOption{Driven(sim)}, func(rt *Runtime, p *scriptProc) {
		for steps := 0; ; steps++ {
			if steps > 100 {
				t.Fatal("driven runtime never finished the script")
			}
			due := rt.Step()
			if due != p.Deadline(sim.Now()) {
				t.Fatalf("Step returned %v, the processor's deadline is %v", due, p.due)
			}
			if p.seen == records && (due.IsZero() || due.After(sim.Now())) {
				return
			}
		}
	})

	if len(pumped.batches) != 3 {
		t.Fatalf("pumped %d batches, want the 3 polls of the script", len(pumped.batches))
	}
	if !reflect.DeepEqual(pumped.batches, driven.batches) {
		t.Fatalf("ProcessBatch sequences differ: pumped %d batches, driven %d", len(pumped.batches), len(driven.batches))
	}
	if len(pumped.puncts) == 0 || !reflect.DeepEqual(pumped.puncts, driven.puncts) {
		t.Fatalf("punctuations differ: pumped %v, driven %v", pumped.puncts, driven.puncts)
	}
	if len(pumpedOut) != len(pumped.puncts) || !reflect.DeepEqual(pumpedOut, drivenOut) {
		t.Fatalf("forwarded output differs: pumped %d messages, driven %d", len(pumpedOut), len(drivenOut))
	}
}

// TestDrivenRuntimeStartsNoPump: a driven runtime's Start initializes the
// processor and launches nothing; Sync runs on the caller at once, and Stop
// returns without a pump to wait for.
func TestDrivenRuntimeStartsNoPump(t *testing.T) {
	b := buildBroker(t, "in")
	sim := vclock.NewSim(scriptEpoch)
	var polled int
	topo, err := NewTopology().Source("src", "in").
		Processor("count", procOf(func(_ ProcessorContext, msgs []Message) error { polled += len(msgs); return nil }), "src").Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(transport.WrapBroker(b), topo, "app", Driven(sim))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := send(mq.NewProducer(b), "in", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if polled != 0 {
		t.Fatal("a driven runtime consumed a record before its first Step")
	}
	ran := false
	if err := rt.Sync(func() { ran = true }); err != nil || !ran {
		t.Fatalf("Sync on a driven runtime: ran %v, err %v", ran, err)
	}
	if due := rt.Step(); !due.IsZero() || polled != 1 {
		t.Fatalf("Step: deadline %v, %d records processed; want none and 1", due, polled)
	}
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
}
