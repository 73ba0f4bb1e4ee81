package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
)

// Tests for the event-driven pumps: an idle member parks on its one deadline,
// and the root closes a window as soon as the merged watermark crosses its
// end, however long LiveConfig.Window is.

// wakeConfig is an event-time session over a one-layer tree — two sources,
// two leaf members, the root — so during a silent spell no sampling member
// receives a record and every wake-up it takes is its own.
func wakeConfig(window time.Duration) LiveConfig {
	return LiveConfig{
		Spec: topology.TreeSpec{
			Sources: 2,
			Layers:  []topology.LayerSpec{{Name: "edge1", Nodes: 2}, {Name: "root", Nodes: 1}},
			Window:  window,
		},
		NewSampler: WHSFactory(),
		Cost:       EffectiveFractionBudget{Fraction: 1},
		Queries:    []query.Kind{query.Sum, query.Count},
		EventTime:  true,
		Seed:       5,
	}
}

// pushAt pushes one item stamped ts into slot.
func pushAt(t *testing.T, s *LiveSession, slot int, ts time.Time) {
	t.Helper()
	in, err := s.Ingester(slot)
	if err != nil {
		t.Fatalf("Ingester(%d): %v", slot, err)
	}
	if err := in.Push(stream.Item{Value: 1, Ts: ts}); err != nil {
		t.Fatalf("Push(%d): %v", slot, err)
	}
}

// memberWakes totals each sampling member's wake-ups by member ID.
func memberWakes(s *LiveSession) map[string]int64 {
	out := make(map[string]int64)
	for id, tel := range s.Snapshot().Nodes {
		if !strings.HasPrefix(id, "root") {
			w := tel.Wakeups
			out[id] = w.Data + w.Deadline + w.Sync
		}
	}
	return out
}

// A member with nothing to fetch parks on its one deadline. With a 1 s idle
// timeout a silent second costs each sampling member its keepalives (one per
// quarter second) and the instant its sources age out — a handful of
// wake-ups, where a pump polling every millisecond wakes a thousand times.
// With aging off (IdleTimeout < 0) a member that has sent its presence beat
// has no deadline at all, and wakes not once.
func TestIdleMemberParks(t *testing.T) {
	for _, c := range []struct {
		idle time.Duration
		max  int64
	}{
		{time.Second, 8},
		{-1, 0},
	} {
		cfg := wakeConfig(50 * time.Millisecond)
		cfg.Window = 10 * time.Millisecond
		cfg.IdleTimeout = c.idle
		s, err := OpenLive(nil, cfg)
		if err != nil {
			t.Fatalf("IdleTimeout %v: OpenLive: %v", c.idle, err)
		}
		now := time.Now()
		for slot := 0; slot < cfg.Spec.Sources; slot++ {
			pushAt(t, s, slot, now)
		}
		time.Sleep(100 * time.Millisecond) // the push reaches the root; presence beats go out
		before := memberWakes(s)
		time.Sleep(time.Second)
		after := memberWakes(s)
		if len(after) != cfg.Spec.Sources {
			t.Fatalf("IdleTimeout %v: telemetry lists sampling members %v, want %d", c.idle, after, cfg.Spec.Sources)
		}
		for id, n := range after {
			if woke := n - before[id]; woke > c.max {
				t.Errorf("IdleTimeout %v: %s woke %d times in a silent second, want ≤ %d", c.idle, id, woke, c.max)
			}
		}
		res, err := s.Close()
		if err != nil {
			t.Fatalf("IdleTimeout %v: Close: %v", c.idle, err)
		}
		assertCountInvariant(t, "parked session", res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
	}
}

// LiveConfig.Window paces no close. With a 1 s Window and 50 ms event
// windows, a root member whose batch carries its watermark past a window's
// end closes the root on its own pump: the window's result is out within 100 ms of the
// push that carries the merged watermark past it, and not before that push.
func TestRootClosesOnAdvance(t *testing.T) {
	const w = 50 * time.Millisecond
	cfg := wakeConfig(w)
	cfg.Window = time.Second
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	wins := s.Windows()
	t0 := time.Now().Truncate(w)
	pushAt(t, s, 0, t0.Add(10*time.Millisecond))
	pushAt(t, s, 1, t0.Add(10*time.Millisecond))
	// Slot 0 moves past window 0; slot 1 still holds the root inside it.
	pushAt(t, s, 0, t0.Add(w+10*time.Millisecond))
	select {
	case win := <-wins:
		t.Fatalf("window %v closed while slot 1 still held the root inside it", win.Start)
	case <-time.After(200 * time.Millisecond):
	}
	start := time.Now()
	pushAt(t, s, 1, t0.Add(w+10*time.Millisecond))
	select {
	case win := <-wins:
		took := time.Since(start)
		if !win.Start.Equal(t0) || win.EstimatedInput != 2 {
			t.Fatalf("first result is window %v with %.0f items, want window %v with 2", win.Start, win.EstimatedInput, t0)
		}
		if took > 100*time.Millisecond {
			t.Fatalf("window closed %v after the push that carried the root past its end, want ≤ 100 ms", took)
		}
	case <-time.After(2 * cfg.Window):
		t.Fatalf("no window closed within %v of the push that carried the root past its end", 2*cfg.Window)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	assertCountInvariant(t, "advance-closed session", res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
}

// A root member's deadline is the instant its watermark can next move without
// a record: here an unheard producer's placeholder, which blocks the merged
// watermark until it ages out, so the member's pump closes the root then.
func TestRootMemberDeadline(t *testing.T) {
	const idle = time.Second
	wall := time.Unix(5000, 0)
	rp := &rootProcessor{wt: newWatermarkTracker(idle, stream.NewSourceTable())}
	rp.wt.expect("edge1-0", wall)
	aged := wall.Add(idle + time.Nanosecond)
	if got := rp.Deadline(wall); !got.Equal(aged) {
		t.Fatalf("root member deadline = %v, want the placeholder's ageing at %v", got, aged)
	}
	if got := rp.Deadline(aged); !got.IsZero() {
		t.Fatalf("root member deadline once the placeholder aged = %v, want none", got)
	}
}

// A root whose input has gone silent closes a window by ageing alone: its
// deadline wakes its pump when a silent chain ages out of the merged
// watermark, with no record left to bring it there. Here edge1-1 dies holding
// the root inside window 0, edge1-0 carries its chain past the window's end
// and then dies too, and nothing reaches the root any more — only the root
// member's own deadline can close the window.
func TestRootClosesBySilentAgeing(t *testing.T) {
	const (
		w    = 50 * time.Millisecond
		idle = 300 * time.Millisecond
	)
	cfg := wakeConfig(w)
	cfg.Window = time.Second
	cfg.IdleTimeout = idle
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	defer s.Close()
	wins := s.Windows()
	t0 := time.Now().Truncate(w)
	pushAt(t, s, 0, t0.Add(10*time.Millisecond))
	pushAt(t, s, 1, t0.Add(10*time.Millisecond))
	time.Sleep(100 * time.Millisecond) // both chains reach the root
	if err := s.KillMember("edge1-1"); err != nil {
		t.Fatalf("KillMember(edge1-1): %v", err)
	}
	pushAt(t, s, 0, t0.Add(w+10*time.Millisecond))
	select {
	case win := <-wins:
		t.Fatalf("window %v closed while edge1-1's chain still held the root inside it", win.Start)
	case <-time.After(100 * time.Millisecond): // edge1-0's advance reaches the root
	}
	if err := s.KillMember("edge1-0"); err != nil {
		t.Fatalf("KillMember(edge1-0): %v", err)
	}
	select {
	case win := <-wins:
		if !win.Start.Equal(t0) {
			t.Fatalf("first result is window %v, want window %v", win.Start, t0)
		}
	case <-time.After(idle + 2*time.Second):
		t.Fatalf("no window closed within %v of the root's input going silent: nothing woke the root to age edge1-1 out", idle+2*time.Second)
	}
}

// An ingest-stamping valve's idle timer beats a Window after the valve's last
// push and re-arms after its own beat; once a fence — FinishIngest, Close or
// a detach of the valve's leaf — has passed the valve, it neither beats nor
// re-arms. Beats are counted as the records the valve sends: one per
// sub-stream, and the pushes here carry one each.
func TestValveIdleTimer(t *testing.T) {
	const window = 40 * time.Millisecond
	for _, fence := range []string{"FinishIngest", "Close", "detach"} {
		t.Run(fence, func(t *testing.T) {
			cfg := wakeConfig(window)
			cfg.EventTime = false
			cfg.Window = window
			s, err := OpenLive(nil, cfg)
			if err != nil {
				t.Fatalf("OpenLive: %v", err)
			}
			defer s.Close()
			in, err := s.Ingester(0)
			if err != nil {
				t.Fatalf("Ingester(0): %v", err)
			}
			sent := func() int64 { return in.carried.sent.Load() }
			// waitSent polls until the valve has sent n records, failing
			// after a generous bound: the timer runs on a shared machine.
			waitSent := func(n int64, what string) {
				t.Helper()
				for deadline := time.Now().Add(40 * window); sent() < n; time.Sleep(window / 8) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: valve sent %d records, want %d", what, sent(), n)
					}
				}
			}
			pushed := time.Now()
			if err := in.Push(stream.Item{Value: 1}); err != nil {
				t.Fatalf("Push: %v", err)
			}
			waitSent(2, "first idle beat")
			if took := time.Since(pushed); took < window {
				t.Fatalf("first idle beat %v after the push, want ≥ %v", took, window)
			}
			waitSent(3, "the beat after the timer's own")

			switch fence {
			case "FinishIngest":
				err = s.FinishIngest()
			case "Close":
				_, err = s.Close()
			case "detach":
				err = s.RemoveEdgeNode(in.leaf.desc.ID)
			}
			if err != nil {
				t.Fatalf("%s: %v", fence, err)
			}
			fenced := sent()
			time.Sleep(3 * window)
			if got := sent(); got != fenced {
				t.Fatalf("valve sent %d records in 3 windows after %s, want none", got-fenced, fence)
			}
			if in.idle.Stop() {
				t.Fatalf("the timer is still armed 3 windows after %s", fence)
			}
		})
	}
}

// An ingest tier whose valves stamp at ingest keeps time moving when pushes
// stop: each valve's idle timer, armed by its first push, beats it a Window
// after its last send, so the root tier — another session on the same
// bus — closes the pushed window with no end of stream.
func TestIngestTierBeatsWhenIdle(t *testing.T) {
	cfg := wakeConfig(50 * time.Millisecond)
	cfg.EventTime = false
	cfg.Window = 50 * time.Millisecond
	bus := transport.NewMem()
	defer bus.Close()
	open := func(tier NodeTier) *NodeSession {
		n, err := OpenNode(context.Background(), withBus(cfg, bus), tier)
		if err != nil {
			t.Fatalf("OpenNode(%+v): %v", tier, err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	root := open(NodeTier{Root: true})
	leaf := open(NodeTier{Layers: []int{0}, Ingest: true})
	wins := root.Windows()
	time.Sleep(2 * cfg.Window) // both tiers park before anything is pushed
	for slot := 0; slot < cfg.Spec.Sources; slot++ {
		if err := leaf.Push(slot, stream.Item{Value: 1}); err != nil {
			t.Fatalf("Push(%d): %v", slot, err)
		}
	}
	select {
	case win := <-wins:
		if win.EstimatedInput != float64(cfg.Spec.Sources) {
			t.Fatalf("first window holds %.0f items, want %d", win.EstimatedInput, cfg.Spec.Sources)
		}
	case <-time.After(40 * cfg.Window):
		t.Fatalf("no window closed within %v of the last push", 40*cfg.Window)
	}
}

// A drain re-reads every edge member's deadline: quiesce arms the shutdown
// backstop (staleAt), but a member whose chains have all aged out while it
// buffers a window — its producers went silent without an end of stream, as
// when the tier upstream died — has no deadline left and is parked with no
// timer. Only the drain's Sync wakes it to find the backstop due, forward
// what it buffers and let the drain settle; without that wake the drain
// waits out its timeout.
func TestDrainWakesStrandedMember(t *testing.T) {
	cfg := wakeConfig(time.Hour) // no window closes on its own
	cfg.Window = 40 * time.Millisecond
	cfg.IdleTimeout = 40 * time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	now := time.Now()
	for slot := 0; slot < cfg.Spec.Sources; slot++ {
		pushAt(t, s, slot, now)
	}
	time.Sleep(300 * time.Millisecond) // ingested, aged out, parked
	pending := func() (n int64) {
		for _, g := range s.groups {
			n += g.pending()
		}
		return n
	}
	if pending() == 0 {
		t.Fatal("no member buffers the pushed items: nothing is stranded")
	}
	start := time.Now()
	if err := s.drain(context.Background()); err != nil {
		t.Fatalf("drain: %v after %v with %d items buffered", err, time.Since(start), pending())
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("drain took %v: the stranded member was not woken", took)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	assertCountInvariant(t, "stranded member", res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
}

// Two root members whose watermarks cross the same window end race into the
// root close from their own pumps. Every window is emitted exactly once, in
// ascending start order, and the count invariant holds: a close to a bound
// the other member's close already passed emits nothing.
func TestConcurrentRootCloses(t *testing.T) {
	const (
		w       = 10 * time.Millisecond
		windows = 40
		names   = 8 // sub-streams per slot, keyed across both partitions
	)
	cfg := wakeConfig(w)
	cfg.Window = w
	cfg.Partitions, cfg.RootShards = 2, 2
	var emitted []time.Time // OnWindow runs under the engine's windowMu
	cfg.OnWindow = func(win WindowResult) { emitted = append(emitted, win.Start) }
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	t0 := time.Now().Truncate(w)
	for k := 0; k < windows; k++ {
		// Every slot moves every sub-stream into window k together, so the
		// leaves flush window k-1 to both root partitions at once.
		for slot := 0; slot < cfg.Spec.Sources; slot++ {
			items := make([]stream.Item, names)
			for n := range items {
				items[n] = stream.Item{
					Source: stream.SourceID(fmt.Sprintf("s%d-%d", slot, n)),
					Value:  1,
					Ts:     t0.Add(time.Duration(k)*w + time.Millisecond),
				}
			}
			in, err := s.Ingester(slot)
			if err != nil {
				t.Fatalf("Ingester(%d): %v", slot, err)
			}
			if err := in.Push(items...); err != nil {
				t.Fatalf("Push(%d): %v", slot, err)
			}
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	for shard := 0; shard < cfg.RootShards; shard++ {
		if id := memberID(s.plan.Root(), shard); res.Nodes[id].Observed == 0 {
			t.Fatalf("root member %s aggregated nothing: the closes did not race", id)
		}
	}
	if len(emitted) != windows || len(res.Windows) != windows {
		t.Fatalf("%d windows emitted, %d in the result, want %d each", len(emitted), len(res.Windows), windows)
	}
	for k, start := range emitted {
		want := t0.Add(time.Duration(k) * w)
		if !start.Equal(want) || !res.Windows[k].Start.Equal(want) {
			t.Fatalf("window %d starts at %v (result %v), want %v: emitted twice or out of order", k, start, res.Windows[k].Start, want)
		}
		if got := res.Windows[k].EstimatedInput; got != float64(cfg.Spec.Sources*names) {
			t.Fatalf("window %d holds %.0f items, want %d", k, got, cfg.Spec.Sources*names)
		}
	}
	assertCountInvariant(t, "racing root closes", res.EstimateCount+res.LateDroppedInput, float64(res.Produced))
}
