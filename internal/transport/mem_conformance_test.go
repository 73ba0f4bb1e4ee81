package transport_test

import (
	"context"
	"testing"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/conformance"
)

// TestMemConformance runs the transport contract against the in-memory
// backend — the reference implementation checking itself, so a contract
// drift shows up here before it shows up as a TCP "bug".
func TestMemConformance(t *testing.T) {
	conformance.Run(t, func(t *testing.T) conformance.Backend {
		b := mq.NewBroker()
		t.Cleanup(b.Close)
		return conformance.Backend{
			Bus:             transport.WrapBroker(b),
			ShutdownBackend: b.Close,
		}
	})
}

func newWarmBus(t *testing.T) transport.Bus {
	t.Helper()
	b := mq.NewBroker()
	t.Cleanup(b.Close)
	return transport.WrapBroker(b)
}

// TestMemOwnership checks the Bus ownership split: NewMem closes its private
// broker, WrapBroker never closes the caller's.
func TestMemOwnership(t *testing.T) {
	m := transport.NewMem()
	if err := m.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateTopic("u", 1, 0); err == nil {
		t.Fatal("owned broker still alive after Bus.Close")
	}

	b := mq.NewBroker()
	defer b.Close()
	w := transport.WrapBroker(b)
	if err := w.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Topic("t"); err != nil {
		t.Fatalf("wrapped broker was closed by Bus.Close: %v", err)
	}
}

// TestMemPollAllocDiscipline pins the steady-state poll loop's allocation
// behavior on the in-memory backend: with a warmed caller-owned scratch,
// PollInto must not allocate per poll. This is the budget the batched hot
// path was built against; a transport refactor must not regress it.
func TestMemPollAllocDiscipline(t *testing.T) {
	bus := newWarmBus(t)
	if err := bus.CreateTopic("t", 2, 0); err != nil {
		t.Fatal(err)
	}
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()
	const total = 20000
	for i := 0; i < total; i += 100 {
		recs := make([]transport.Record, 100)
		for j := range recs {
			recs[j].Key = []byte{byte(j % 8)}
			recs[j].Value = []byte{byte(j)}
		}
		if err := p.SendBatch("t", recs); err != nil {
			t.Fatal(err)
		}
	}

	scratch := make([]transport.Record, 0, 256)
	// Warm the path once, then measure.
	scratch, _ = c.TryPollInto(scratch[:0], 256)
	consumed := len(scratch)
	allocs := testing.AllocsPerRun(50, func() {
		out, err := c.TryPollInto(scratch[:0], 256)
		if err != nil {
			t.Fatal(err)
		}
		consumed += len(out)
		scratch = out
	})
	// The in-memory group poll itself allocates nothing (mq's
	// TestGroupPollAllocatesNothing); the budget is the boundary's, and the
	// cap catches per-record copying creeping in.
	if allocs > 4 {
		t.Fatalf("steady-state TryPollInto allocates %.1f times per poll, budget is <=4", allocs)
	}
	if consumed == 0 {
		t.Fatal("poll loop consumed nothing; the measurement was vacuous")
	}
}

// TestMemBlockingPollAlloc pins the blocking path too: PollInto with a
// recycled scratch and records already available must stay allocation-free
// apart from the context plumbing the caller chooses.
func TestMemBlockingPollAlloc(t *testing.T) {
	bus := newWarmBus(t)
	if err := bus.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	c, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bus.NewProducer()
	for i := 0; i < 5000; i++ {
		if err := p.SendBatch("t", []transport.Record{{Value: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	scratch := make([]transport.Record, 0, 64)
	scratch, _ = c.PollInto(ctx, scratch[:0], 64)
	allocs := testing.AllocsPerRun(20, func() {
		out, err := c.PollInto(ctx, scratch[:0], 64)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	})
	if allocs > 4 {
		t.Fatalf("ready-records PollInto allocates %.1f times per poll, budget is <=4", allocs)
	}
}
