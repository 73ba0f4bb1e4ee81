package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/checkpoint"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
)

// The valve admits pushes on a lag it carries forward — the last GroupLag
// answer plus its process's sends since — and probes only past the mark.
// These tests hold that to the promise the per-push probe kept, in both
// sessions a valve runs in: the same records admitted against a stalled
// group, one bound per topic however many valves feed it, no admission on a
// probe that failed — and count what it saves.

// probeCountingBus counts the GroupLag probes that cross it and can fail them.
type probeCountingBus struct {
	transport.Bus
	probes atomic.Int64
	fail   atomic.Bool
}

func (b *probeCountingBus) GroupLag(topic, group string) (int64, error) {
	b.probes.Add(1)
	if b.fail.Load() {
		return 0, errors.New("probe: injected failure")
	}
	return b.Bus.GroupLag(topic, group)
}

// valveSessions are the two sessions a valve runs in.
var valveSessions = []string{"node", "in-process"}

// carriedLagFixture is a session of `sources` slots feeding one leaf topic
// over an in-memory bus, plus a member of the leaf's consumer group: the
// group exists, and is consumed only when the test says so. The node session
// only ingests; the in-process session's own leaf group steps aside for the
// fixture's consumer.
type carriedLagFixture struct {
	bus      *probeCountingBus
	valve    func(slot int) (*Ingester, error)
	consumer transport.Consumer
	topic    string
	group    string
}

func newCarriedLagFixture(t *testing.T, session string, sources, maxLag int) *carriedLagFixture {
	t.Helper()
	broker := mq.NewBroker()
	t.Cleanup(broker.Close)
	f := &carriedLagFixture{bus: &probeCountingBus{Bus: transport.WrapBroker(broker)}}
	spec := topology.TreeSpec{
		Sources: sources,
		Layers: []topology.LayerSpec{
			{Name: "edge", Nodes: 1},
			{Name: "root", Nodes: 1},
		},
		Window: 100 * time.Millisecond,
	}
	cfg := nodeTestConfig(spec, FractionBudget{Fraction: 1}, 0)
	cfg.MaxIngestLag = maxLag
	var e *engine
	switch session {
	case "node":
		sess, err := OpenNode(context.Background(), withBus(cfg, f.bus), NodeTier{Ingest: true})
		if err != nil {
			t.Fatalf("OpenNode: %v", err)
		}
		t.Cleanup(func() { sess.Close() })
		e, f.valve = sess.engine, sess.Pusher
	case "in-process":
		ctx, cancel := context.WithCancel(context.Background())
		sess, err := OpenLive(ctx, withBus(cfg, f.bus))
		if err != nil {
			t.Fatalf("OpenLive: %v", err)
		}
		// Cancel first: pushes left parked on a stalled group must not
		// hold Close's drain.
		t.Cleanup(func() { cancel(); sess.Close() })
		sess.groupByID[sess.plan.Layers[0][0].ID].stop()
		e, f.valve = sess.engine, sess.Ingester
	default:
		t.Fatalf("unknown session %q", session)
	}
	f.topic = e.plan.Sources[0].Topic
	f.group = e.plan.Layers[0][e.plan.Sources[0].ParentIndex].ID + "-in"
	var err error
	if f.consumer, err = f.bus.NewGroupConsumer(f.topic, f.group); err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	t.Cleanup(f.consumer.Close)
	return f
}

func (f *carriedLagFixture) pusher(t *testing.T, slot int) *Ingester {
	t.Helper()
	p, err := f.valve(slot)
	if err != nil {
		t.Fatalf("valve(%d): %v", slot, err)
	}
	return p
}

// pushInBackground pushes n single items through p, one record each, and
// reports the first error (nil once all are admitted).
func pushInBackground(p *Ingester, n int) <-chan error {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := p.Push(stream.Item{Value: 1}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// stalledAt waits for sent() to reach want and then watches it stay there for
// many probe intervals (Window/8 = 1.25 ms each).
func stalledAt(t *testing.T, what string, sent func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sent() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: admitted %d, never reached %d", what, sent(), want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if got := sent(); got != want {
		t.Fatalf("%s: admitted %d, want it blocked at %d", what, got, want)
	}
}

// (i) Against a group that does not consume, the valve admits what the
// per-push probe admitted: every push that finds lag <= MaxIngestLag, so
// MaxIngestLag records and the push that found exactly the mark.
func TestCarriedLagAdmitsWhatTheProbeDid(t *testing.T) {
	for _, session := range valveSessions {
		t.Run(session, func(t *testing.T) {
			const maxLag = 8
			f := newCarriedLagFixture(t, session, 1, maxLag)
			p := f.pusher(t, 0)
			pushInBackground(p, 64)
			stalledAt(t, "stalled group", p.Sent, maxLag+1)
			if lag, err := f.bus.Bus.GroupLag(f.topic, f.group); err != nil || lag != maxLag+1 {
				t.Fatalf("broker-side lag %d (err %v), want %d", lag, err, maxLag+1)
			}
		})
	}
}

// (ii) Two valves on one leaf topic share the figure: what one has sent
// counts against the other, so the topic is held to one bound, not one each.
func TestCarriedLagIsSharedPerTopic(t *testing.T) {
	for _, session := range valveSessions {
		t.Run(session, func(t *testing.T) {
			const maxLag = 8
			f := newCarriedLagFixture(t, session, 2, maxLag)
			a, b := f.pusher(t, 0), f.pusher(t, 1)
			if a.topic != b.topic {
				t.Fatalf("slots 0 and 1 feed %q and %q; the test needs one topic", a.topic, b.topic)
			}
			// b gets a vouched figure of its own first, then a runs into the mark.
			if err := b.Push(stream.Item{Value: 1}); err != nil {
				t.Fatalf("Push: %v", err)
			}
			pushInBackground(a, 64)
			stalledAt(t, "valve a", a.Sent, maxLag)
			// A figure b kept to itself would read 1 here and admit seven more
			// unasked.
			pushInBackground(b, 64)
			stalledAt(t, "valve b behind valve a's sends", b.Sent, 1)
			if lag, err := f.bus.Bus.GroupLag(f.topic, f.group); err != nil || lag != maxLag+1 {
				t.Fatalf("broker-side lag %d (err %v), want %d across both valves", lag, err, maxLag+1)
			}
		})
	}
}

// (iii) A probe that errors is retried and never admits — neither before any
// probe has answered nor once the carried figure has run past the mark with
// the true lag at zero.
func TestCarriedLagNeverAdmitsOnAFailedProbe(t *testing.T) {
	for _, session := range valveSessions {
		t.Run(session, func(t *testing.T) {
			const maxLag = 8
			f := newCarriedLagFixture(t, session, 1, maxLag)
			p := f.pusher(t, 0)
			drain := func() {
				for {
					recs, err := f.consumer.TryPollInto(nil, 64)
					if err != nil {
						t.Fatalf("TryPollInto: %v", err)
					}
					if len(recs) == 0 {
						return
					}
				}
			}

			f.bus.fail.Store(true)
			done := pushInBackground(p, 1)
			stalledAt(t, "no probe has answered", p.Sent, 0)
			if got := f.bus.probes.Load(); got < 2 {
				t.Fatalf("the failing probe was tried %d times, want it retried", got)
			}
			f.bus.fail.Store(false)
			if err := <-done; err != nil {
				t.Fatalf("push after the probe recovered: %v", err)
			}

			// The figure is 1 of 8 now. With probes failing again and the consumer
			// keeping the true lag at zero, the valve may admit the eight pushes its
			// figure covers and must then wait: it cannot know the lag is zero.
			f.bus.fail.Store(true)
			done = pushInBackground(p, 64)
			stalledAt(t, "figure past the mark, probes failing", func() int64 { drain(); return p.Sent() }, maxLag+1)
			f.bus.fail.Store(false)
			deadline := time.Now().Add(10 * time.Second)
			for p.Sent() < 1+64 {
				if time.Now().After(deadline) {
					t.Fatalf("admitted %d of 65 after the probe recovered", p.Sent())
				}
				drain()
				time.Sleep(time.Millisecond)
			}
			if err := <-done; err != nil {
				t.Fatalf("push: %v", err)
			}
		})
	}
}

// (iv) With a consumer that keeps up, the valve asks once per MaxIngestLag+1
// records instead of once per push.
func TestCarriedLagProbesOncePerMark(t *testing.T) {
	for _, session := range valveSessions {
		t.Run(session, func(t *testing.T) {
			const maxLag, pushes = 16, 1000
			f := newCarriedLagFixture(t, session, 1, maxLag)
			p := f.pusher(t, 0)
			for i := 0; i < pushes; i++ {
				if err := p.Push(stream.Item{Value: 1}); err != nil {
					t.Fatalf("Push %d: %v", i, err)
				}
				if recs, err := f.consumer.TryPollInto(nil, 64); err != nil || len(recs) != 1 {
					t.Fatalf("push %d: consumer took %d records, %v", i, len(recs), err)
				}
			}
			if got := f.bus.probes.Load(); got > 130 {
				t.Fatalf("%d pushes at lag 0 with MaxIngestLag %d issued %d GroupLag probes, want <= 130 (one per push: %d)", pushes, maxLag, got, pushes)
			} else {
				t.Logf("%d pushes, %d probes", pushes, got)
			}
		})
	}
}

// (v) An elastic change to a leaf group puts the topic's carried figure past
// the mark, so the next push asks the broker rather than trusting a figure
// from before the change — and the push after that trusts the fresh answer.
func TestCarriedLagProbesAfterLeafGroupChange(t *testing.T) {
	broker := mq.NewBroker()
	defer broker.Close()
	bus := &probeCountingBus{Bus: transport.WrapBroker(broker)}
	spec := topology.TreeSpec{
		Sources: 1,
		Layers: []topology.LayerSpec{
			{Name: "edge", Nodes: 1},
			{Name: "root", Nodes: 1},
		},
		Window: 100 * time.Millisecond,
	}
	cfg := withBus(nodeTestConfig(spec, FractionBudget{Fraction: 1}, 0), bus)
	cfg.Partitions = 2
	cfg.Checkpoint = checkpoint.NewMemoryStore()
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	defer s.Close()
	in, err := s.Ingester(0)
	if err != nil {
		t.Fatalf("Ingester: %v", err)
	}
	// probesOf pushes one item and reports how many probes the push made.
	probesOf := func(what string) int64 {
		before := bus.probes.Load()
		if err := in.Push(stream.Item{Value: 1}); err != nil {
			t.Fatalf("%s: Push: %v", what, err)
		}
		return bus.probes.Load() - before
	}
	if got := probesOf("first push"); got != 1 {
		t.Fatalf("the first push made %d probes, want 1", got)
	}
	if got := probesOf("push within the mark"); got != 0 {
		t.Fatalf("a push within the mark made %d probes, want 0", got)
	}

	leaf := s.plan.Layers[0][0].ID
	var added string
	for _, change := range []struct {
		name string
		do   func() error
	}{
		{"AddMember", func() (err error) { added, err = s.AddMember(leaf); return err }},
		{"KillMember", func() error { return s.KillMember(added) }},
		{"RestartMember", func() error { return s.RestartMember(added) }},
	} {
		if err := change.do(); err != nil {
			t.Fatalf("%s: %v", change.name, err)
		}
		if got := probesOf(change.name); got != 1 {
			t.Fatalf("the push after %s made %d probes, want 1", change.name, got)
		}
		if got := probesOf("push after " + change.name); got != 0 {
			t.Fatalf("the second push after %s made %d probes, want 0", change.name, got)
		}
	}
}
