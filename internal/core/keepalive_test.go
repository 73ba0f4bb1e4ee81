package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/workload"
)

// Tests for the keepalive rule (watermarkTracker.keepaliveDue): an event-time
// member whose punctuation advances nothing re-asserts liveness upstream only
// when its parent could otherwise age it out, when a chain came back from
// idle, or for its first presence beat.

// sweepTick is the punctuation cadence the member tests drive, the
// benchmark's and the examples' sweep.
const sweepTick = 10 * time.Millisecond

// beatMember is a census edge member (hopMember) named id whose tracker ages
// chains after idle (≤ 0: never).
func beatMember(id string, idle time.Duration) (*samplingProcessor, *hopCtx) {
	p, ctx := hopMember(1)
	p.id = id
	p.wt = newWatermarkTracker(idle, p.ew.strata)
	return p, ctx
}

// valveRecord is one source record of one item at event time ts, stamped
// with ts as its producer's watermark.
func valveRecord(from string, src stream.SourceID, ts time.Time) streams.Message {
	b := stream.Batch{Source: src, Weight: 1, Items: []stream.Item{{Source: src, Value: 1, Ts: ts}}}
	return streams.Message{Key: []byte(src), Value: b.Marshal(), Watermark: mq.Watermark{From: from, At: ts}}
}

// forwarded decodes the records a member sent since index from.
func forwarded(t *testing.T, ctx *hopCtx, from int) []stream.Batch {
	t.Helper()
	var out []stream.Batch
	for _, m := range ctx.retained[from:] {
		b, err := stream.UnmarshalBatch(m.Value)
		if err != nil {
			t.Fatalf("forwarded record does not decode: %v", err)
		}
		out = append(out, b)
	}
	return out
}

// With a 1 s idle timeout and a watermark that stays still, a member beats
// once per quarter second — four times in a second of 10 ms punctuations
// (its first advance, then three keepalives), not once per punctuation.
func TestKeepaliveOnIdleHorizon(t *testing.T) {
	p, ctx := beatMember("edge#0", time.Second)
	wall := time.Unix(5000, 0)
	ts := simEpoch.Add(100 * time.Millisecond) // window 0 never closes: the watermark stays here
	for tick := 0; tick < 100; tick++ {
		now := wall.Add(time.Duration(tick) * sweepTick)
		p.processEvent(valveRecord("valve", "a", ts), now)
		p.Punctuate(now)
	}
	sent := forwarded(t, ctx, 0)
	if len(sent) != 4 {
		t.Fatalf("%d records forwarded in a second of still watermark, want 4 (one beat per IdleTimeout/%d)", len(sent), keepaliveDivisor)
	}
	for i, b := range sent {
		if len(b.Items) != 0 || b.Source != "edge#0" {
			t.Fatalf("record %d is %d items of %q, want the member's beat", i, len(b.Items), b.Source)
		}
	}
}

// A chain that comes back from idle makes the next punctuation beat, however
// recent the last beat: the member's promise may have leapt while the chain
// was excluded, and its parent should hear the member's state at once.
func TestKeepaliveOnRevival(t *testing.T) {
	const idle = 100 * time.Millisecond
	p, ctx := beatMember("edge#0", idle)
	wall := time.Unix(5000, 0)
	ts := simEpoch.Add(100 * time.Millisecond)
	p.processEvent(valveRecord("valve", "b", ts), wall)
	var now time.Time
	for tick := 0; tick < 20; tick++ { // b is silent for 200 ms: idle at the member
		now = wall.Add(time.Duration(tick) * sweepTick)
		p.processEvent(valveRecord("valve", "a", ts), now)
		p.Punctuate(now)
	}
	if slot := p.ew.strata.Slot("b"); !p.wt.aged(&p.wt.producers[0].chains[slot], now) {
		t.Fatal("chain b still fresh after 200 ms of silence")
	}
	// b speaks again a millisecond after a beat; the next punctuation, a
	// millisecond later, is far inside the quarter horizon.
	now = p.wt.lastBeat.Add(time.Millisecond)
	p.processEvent(valveRecord("valve", "b", ts), now)
	before := len(ctx.retained)
	p.Punctuate(now.Add(time.Millisecond))
	sent := forwarded(t, ctx, before)
	if len(sent) != 1 || len(sent[0].Items) != 0 || sent[0].Source != "edge#0" {
		t.Fatalf("punctuation after b's revival sent %v, want the member's one beat", sent)
	}
}

// With a 100 ms idle timeout, a member that holds buffered windows behind the
// lateness horizon for five idle timeouts, while a sibling's event time races
// ahead at their parent, is never aged out there: nothing is late at the
// parent, and forwarded plus late-dropped input is exactly what was produced.
func TestKeepaliveHoldsBufferedMember(t *testing.T) {
	const idle = 100 * time.Millisecond
	leaf, leafOut := beatMember("leaf0", idle)
	parent, parentOut := beatMember("edge2", idle)
	parent.wt.floorsOnly = true // its producers are members
	wall := time.Unix(5000, 0)
	parent.wt.expect("leaf0", wall)
	parent.wt.expect("leaf1", wall)

	produced, delivered := 0, 0
	pipe := func(now time.Time) { // leaf0 → parent, in send order
		for _, m := range leafOut.retained[delivered:] {
			parent.processEvent(m, now)
		}
		delivered = len(leafOut.retained)
	}
	held := simEpoch.Add(100 * time.Millisecond) // leaf0's watermark stays in window 0
	var now time.Time
	for tick := 0; tick < int(5*idle/sweepTick); tick++ {
		now = wall.Add(time.Duration(tick) * sweepTick)
		leaf.processEvent(valveRecord("valve", "a", held), now)
		leaf.Punctuate(now)
		pipe(now)
		// leaf1 moves ten windows of event time per second of wall clock.
		parent.processEvent(valveRecord("leaf1", "b", simEpoch.Add(time.Duration(tick)*100*time.Millisecond)), now)
		parent.Punctuate(now)
		produced += 2
	}
	leaf.drainAll(now)
	pipe(now)
	parent.drainAll(now)

	late := parent.ew.late
	if n := late.items.Load(); n != 0 {
		t.Fatalf("%d items late at the parent: it aged the buffering leaf out", n)
	}
	var input float64
	for _, b := range forwarded(t, parentOut, 0) {
		input += b.Weight * float64(len(b.Items))
	}
	assertCountInvariant(t, "forwarded + late", input+late.input.load(), float64(produced))
}

// Without aging (IdleTimeout < 0) nothing a keepalive refreshes can expire:
// a member whose watermark is held by a producer it never hears sends its one
// zero-instant presence beat, and nothing after it.
func TestKeepaliveWithoutAging(t *testing.T) {
	p, ctx := beatMember("edge#0", -1)
	wall := time.Unix(5000, 0)
	p.wt.expect("unheard", wall)
	for tick := 0; tick < 100; tick++ {
		now := wall.Add(time.Duration(tick) * sweepTick)
		p.processEvent(valveRecord("valve", "a", simEpoch.Add(time.Duration(tick)*time.Millisecond)), now)
		p.Punctuate(now)
	}
	if len(ctx.retained) != 1 {
		t.Fatalf("%d records forwarded, want exactly one presence beat", len(ctx.retained))
	}
	if wm := ctx.retained[0].Watermark; wm.From != "edge#0" || !wm.At.IsZero() {
		t.Fatalf("beat stamped %+v, want a zero-instant presence record from edge#0", wm)
	}
}

// A member's deadline is the earliest of its time-driven duties, and zero
// when only a record can give it one: after the first advance beats, the
// next keepalive is a quarter horizon out; once its only chain has aged out
// there is nothing to beat and nothing left to age; at quiesce a member
// still buffering data is due when its last chain goes stale, and drains
// then; with aging off there is nothing after the first beat; and a silent
// chain holding the watermark back makes the member due when it ages out.
func TestMemberDeadline(t *testing.T) {
	const idle = time.Second
	wall := time.Unix(5000, 0)
	held := simEpoch.Add(100 * time.Millisecond) // window 0 never closes: the data stays buffered

	p, ctx := beatMember("edge#0", idle)
	p.processEvent(valveRecord("valve", "a", held), wall)
	if got, want := p.Deadline(wall), wall.Add(idle/keepaliveDivisor); !got.Equal(want) {
		t.Fatalf("deadline after the first advance = %v, want the keepalive at %v", got, want)
	}
	due := wall.Add(idle / keepaliveDivisor)
	before := len(ctx.retained)
	p.Punctuate(due)
	if len(ctx.retained) != before+1 {
		t.Fatalf("punctuation at the keepalive deadline forwarded %d records, want one beat", len(ctx.retained)-before)
	}
	if got, want := p.Deadline(due), due.Add(idle/keepaliveDivisor); !got.Equal(want) {
		t.Fatalf("deadline after a keepalive = %v, want %v", got, want)
	}
	if got := p.Deadline(wall.Add(idle + time.Nanosecond)); !got.IsZero() {
		t.Fatalf("deadline once the only chain aged out = %v, want none", got)
	}

	p.quiesce.Store(true)
	if got, want := p.Deadline(wall), wall.Add(idle+time.Nanosecond); !got.Equal(want) {
		t.Fatalf("deadline at quiesce with data buffered = %v, want the backstop at %v", got, want)
	}
	p.Punctuate(wall.Add(idle + time.Nanosecond))
	if p.ew.buffered() != 0 {
		t.Fatalf("the backstop left %d items buffered", p.ew.buffered())
	}
	if got := p.Deadline(wall.Add(idle + time.Nanosecond)); !got.IsZero() {
		t.Fatalf("deadline after the backstop drained = %v, want none", got)
	}

	q, _ := beatMember("edge#1", -1)
	q.processEvent(valveRecord("valve", "a", held), wall)
	if got := q.Deadline(wall); !got.IsZero() {
		t.Fatalf("deadline without aging after the first beat = %v, want none", got)
	}

	// A silent chain holding the watermark back: the member is due the
	// instant it ages out, and that punctuation closes the window it held.
	r, rctx := beatMember("edge#2", idle)
	r.processEvent(valveRecord("slow", "b", held), wall)
	r.processEvent(valveRecord("fast", "a", simEpoch.Add(5*time.Second)), wall.Add(idle/2))
	r.quiesce.Store(true) // keepalives off: the idle horizon alone decides
	aged := wall.Add(idle + time.Nanosecond)
	if got := r.Deadline(wall.Add(idle / 2)); !got.Equal(aged) {
		t.Fatalf("deadline with a silent chain = %v, want the instant it ages out, %v", got, aged)
	}
	before = len(rctx.retained)
	r.Punctuate(aged)
	items := 0
	for _, b := range forwarded(t, rctx, before) {
		items += len(b.Items)
	}
	if items != 1 {
		t.Fatalf("the punctuation at the ageing instant forwarded %d items, want the held window's 1", items)
	}
}

// stillSource emits one item per chunk, always at the same event instant, so
// the watermark of every node above it stands still after its first advance.
type stillSource struct {
	src stream.SourceID
	ts  time.Time
}

func (s stillSource) Generate(time.Time, time.Duration) []stream.Item {
	return []stream.Item{{Source: s.src, Value: 1, Ts: s.ts}}
}

// The simulator drives the same members, so the same rule holds in virtual
// time. Testbed's eight sub-streams enter four edge1 nodes, two each, whose
// watermarks stand still: every record they send up before the sources' end
// of stream is a beat (the close cascade after it rides the links too, so
// the test counts only records sent before Duration). A source ships its
// first chunk at 125 ms and it lands 10 ms later; a node's first advance,
// when its second source is heard at 135 ms, beats once — one record on its
// one-lane link, whatever its sub-streams — and with aging off nothing
// follows: 4 records. With an 8 s idle timeout a node re-beats every 2 s
// while it buffers — at 2.135, 4.135, 6.135 and 8.135 s of a 9 s run — one
// record each time: 4 + 4×4.
func TestKeepaliveSim(t *testing.T) {
	const duration = 9 * time.Second
	for _, c := range []struct {
		idle time.Duration
		want int64
	}{
		{-1, 4},
		{8 * time.Second, 4 + 4*4},
	} {
		var beats int64
		res, err := RunSim(SimConfig{
			Spec: topology.Testbed(),
			Source: func(i int) workload.Source {
				return stillSource{src: stream.SourceID(string(rune('a' + i))), ts: simEpoch.Add(100 * time.Millisecond)}
			},
			NewSampler:  WHSFactory(),
			Cost:        EffectiveFractionBudget{Fraction: 1},
			Duration:    duration,
			Queries:     []query.Kind{query.Count},
			IdleTimeout: c.idle,
			onSend: func(layer int, at time.Time) {
				if layer == 1 && at.Before(simEpoch.Add(duration)) {
					beats++
				}
			},
		})
		if err != nil {
			t.Fatalf("IdleTimeout %v: RunSim: %v", c.idle, err)
		}
		if beats != c.want {
			t.Fatalf("IdleTimeout %v: %d records into edge2 before the end of stream, want %d", c.idle, beats, c.want)
		}
		if res.LateDropped != 0 || len(res.Windows) != 1 || res.Windows[0].EstimatedInput != float64(res.Generated) {
			t.Fatalf("IdleTimeout %v: %d late, %d windows — want every item in one window", c.idle, res.LateDropped, len(res.Windows))
		}
	}
}

// A member that owns only some of its input lanes still promises on every
// lane of its parent topic: with four partitions and two members per edge
// layer, each member's sub-streams hash onto a subset of the parent's lanes,
// and a beat keyed by sub-stream would leave the parent's floors for the
// other lanes at zero until the idle timeout (10 s here) aged them out.
// Windows must therefore reach the root while the pushes still run, not only
// at Close's end-of-stream cascade.
func TestMemberBeatsEveryLane(t *testing.T) {
	cfg := sessionConfig(1)
	cfg.Window = 50 * time.Millisecond
	cfg.Partitions = 4
	cfg.LayerShards = []int{2, 2}
	cfg.IdleTimeout = 10 * time.Second
	s, err := OpenLive(context.Background(), cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	const perSlot = 16
	slots := s.plan.Spec.Sources
	valves := make([]*Ingester, slots)
	for slot := range valves {
		if valves[slot], err = s.Ingester(slot); err != nil {
			t.Fatalf("Ingester(%d): %v", slot, err)
		}
	}
	items := make([]stream.Item, perSlot)
	for end := time.Now().Add(600 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		for slot, in := range valves {
			for i := range items {
				items[i] = stream.Item{Source: stream.SourceID(fmt.Sprintf("s%d-%d", slot, i)), Value: 1}
			}
			if err := in.Push(items...); err != nil {
				t.Fatalf("Push slot %d: %v", slot, err)
			}
		}
	}
	early := s.Snapshot().WindowsClosed
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if early == 0 {
		t.Fatalf("0 of %d windows reached the root before Close: a parent's lane floors waited out the idle timeout", len(res.Windows))
	}
	assertCountInvariant(t, "every lane beaten", res.EstimateCount, float64(res.Produced))
}
