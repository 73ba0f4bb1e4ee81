package core

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// ingest is ingestWire's oracle, for batches already in memory: it assigns a
// weighted batch's items to their event-time windows, splitting the batch at
// window boundaries, one item at a time.
func (ew *eventWindows) ingest(b stream.Batch) {
	items := b.Items
	for lo := 0; lo < len(items); {
		start := windowFloor(items[lo].Ts.UnixNano(), ew.window)
		end := start + int64(ew.window)
		hi := lo + 1
		for hi < len(items) {
			if ts := items[hi].Ts.UnixNano(); ts < start || ts >= end {
				break
			}
			hi++
		}
		if n := ew.place(start, hi-lo, b.Weight); n != nil {
			// IngestBatch copies items out, so handing it a sub-slice of
			// the caller's storage is safe.
			n.IngestBatch(stream.Batch{Source: b.Source, Weight: b.Weight, Items: items[lo:hi]})
		}
		lo = hi
	}
}

// ewState is everything an eventWindows holds that a later close, late
// judgement or checkpoint depends on.
type ewState struct {
	Bound         int64
	BoundSet      bool
	Psi           map[int64][]stream.Batch
	Weights       map[int64]map[stream.SourceID]float64
	Observed      map[int64]int
	LateItems     int64
	LateInput     float64
	Obs, Emit, Wn int64
}

func stateOf(ew *eventWindows) ewState {
	s := ewState{
		Bound: ew.bound, BoundSet: ew.boundSet,
		Psi: map[int64][]stream.Batch{}, Weights: map[int64]map[stream.SourceID]float64{}, Observed: map[int64]int{},
		LateItems: ew.late.items.Load(), LateInput: ew.late.input.load(),
		Obs: ew.obs.Load(), Emit: ew.emit.Load(), Wn: ew.wins.Load(),
	}
	for start, n := range ew.open {
		s.Psi[start], s.Weights[start], s.Observed[start] = n.psi, carriedWeights(n), n.observed
	}
	return s
}

// carriedWeights returns a node's carried W^in by sub-stream name.
func carriedWeights(n *Node) map[stream.SourceID]float64 {
	var m map[stream.SourceID]float64 // nil while none is carried
	for slot, cw := range n.weights {
		if cw.set {
			if m == nil {
				m = make(map[stream.SourceID]float64)
			}
			m[n.strata.ID(int32(slot))] = cw.w
		}
	}
	return m
}

// Property: decoding a record straight into the window slabs (ParseHeader +
// ingestWire) leaves an eventWindows exactly where decoding it into a batch
// and ingesting that (UnmarshalBatchInto + ingest) leaves it — Ψ pairs per
// window, carried weights, the late counter and the lifetime counters — for
// records spanning one to five windows, out of order, with items behind the
// close bound, several sub-streams and weight lineages, and closes (with
// recycling, so slabs and window nodes are reused) in between.
func TestWireIngestEqualsBatchIngest(t *testing.T) {
	const window = time.Second
	f := func(seed uint64) bool {
		gen := xrand.New(seed)
		mk := func() *Node {
			return NewNode("n", WHSFactory()(0, 0, 3), EffectiveFractionBudget{Fraction: 0.5})
		}
		lateness := time.Duration(gen.Intn(3)) * window / 2
		var lateA, lateB lateCounter
		viaBatch := newEventWindows(window, lateness, &lateA, mk)
		viaWire := newEventWindows(window, lateness, &lateB, mk)
		names := viaWire.strata
		var scratch stream.Batch

		front := 0 // the window the stream has reached
		for rec, records := 0, 5+gen.Intn(25); rec < records; rec++ {
			src := stream.SourceID(string(rune('a' + gen.Intn(3))))
			b := stream.Batch{Source: src, Weight: 1 + float64(gen.Intn(3))/2}
			span := 1 + gen.Intn(5)
			for i, n := 0, gen.Intn(40); i < n; i++ {
				w := front + gen.Intn(span)
				if gen.Intn(6) == 0 {
					w = front - 1 - gen.Intn(4) // a straggler, late once the bound has moved
				}
				off := time.Duration(gen.Int63n(int64(window)))
				switch gen.Intn(4) { // window edges, where a run must break exactly
				case 0:
					off = 0
				case 1:
					off = window - 1
				}
				ts := simEpoch.Add(time.Duration(w)*window + off)
				b.Items = append(b.Items, stream.Item{Source: src, Value: gen.Normal(0, 10), Ts: ts, Pub: gen.Int63n(3)})
			}
			payload := b.Marshal()

			if err := stream.UnmarshalBatchInto(&scratch, payload); err != nil {
				t.Fatal(err)
			}
			viaBatch.ingest(scratch)
			h, err := stream.ParseHeader(payload, names)
			if err != nil {
				t.Fatal(err)
			}
			viaWire.ingestWire(h)

			if gen.Intn(3) == 0 {
				front += gen.Intn(3)
				wm := simEpoch.Add(time.Duration(front) * window)
				closedA, closedB := viaBatch.advance(wm), viaWire.advance(wm)
				if len(closedA) != len(closedB) {
					return false
				}
				for i := range closedA {
					if closedA[i].start != closedB[i].start || !reflect.DeepEqual(closedA[i].theta, closedB[i].theta) {
						return false
					}
				}
				viaBatch.recycle(closedA)
				viaWire.recycle(closedB)
			}
			if !reflect.DeepEqual(stateOf(viaBatch), stateOf(viaWire)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Once a window has retired, opening the next one builds nothing: the node,
// its slices and its sampler's generator — rewound to the plan-lineage seed,
// which the windows before it had drawn from — are the retired window's.
func TestReopenedWindowAllocatesNothing(t *testing.T) {
	var late lateCounter
	ew := newEventWindows(hopWindow, 0, &late, func() *Node {
		return NewNode("edge", WHSFactory()(0, 0, 7), EffectiveFractionBudget{Fraction: 0.25})
	})
	var opened []*Node
	var mallocs []uint64
	for w := 0; w < 6; w++ {
		start := simEpoch.Add(time.Duration(w) * hopWindow).UnixNano()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := ew.place(start, 0, 1)
		runtime.ReadMemStats(&after)
		opened = append(opened, n)
		mallocs = append(mallocs, after.Mallocs-before.Mallocs)
		for _, b := range hopBatches(w) {
			ew.ingest(b)
		}
		closed := ew.advance(simEpoch.Add(time.Duration(w+1) * hopWindow))
		if len(closed) != 1 || closed[0].node != n {
			t.Fatalf("window %d: closed %d windows", w, len(closed))
		}
		var kept int
		for _, b := range closed[0].theta {
			kept += len(b.Items)
		}
		if kept >= hopSources*hopPerWindow {
			t.Fatalf("window %d kept %d items: the sampler drew nothing, so the test rewinds nothing", w, kept)
		}
		ew.recycle(closed)
	}
	for w := 1; w < len(opened); w++ {
		if opened[w] != opened[0] {
			t.Fatalf("window %d opened on a new node, not the retired one", w)
		}
		if mallocs[w] != 0 {
			t.Fatalf("opening window %d allocated %d objects", w, mallocs[w])
		}
	}
}
