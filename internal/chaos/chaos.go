// Package chaos is the fault-injection harness for elastic live
// deployments: it drives a real Deployment through a seeded random schedule
// of member crashes, restarts, group rescales, leaf detach/attach cycles,
// and ingest impairments (stalled slots, bursts, event-time disorder) while
// pushing a known item count — then checks that the paper's exact-count
// identity Σ EstimatedInput + LateDroppedInput == Produced survived, that
// every confidence interval stayed finite, and that every crash recovered.
//
// Everything is deterministic in Config.Seed (the schedule, not goroutine
// interleaving), so a failing seed is a reproducible bug report. The test
// binary exposes -chaos.seed to replay one.
package chaos

import (
	"fmt"
	"math"
	"time"

	"github.com/approxiot/approxiot"
	"github.com/approxiot/approxiot/internal/stats"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Config shapes one chaos run. The zero value is a usable small run; only
// Seed is usually worth setting.
type Config struct {
	// Seed fixes the op schedule. Runs with equal configs are identical
	// schedules (goroutine interleaving still varies).
	Seed uint64
	// Rounds is the number of push+op rounds (default 12; round 0 always
	// pushes undisturbed to warm the tree).
	Rounds int
	// PerSlot is the item count pushed per source slot per round
	// (default 20).
	PerSlot int
	// EventTime switches the deployment to event-time windowing and adds
	// timestamp disorder to the impairment pool.
	EventTime bool
	// Slide composes sliding windows over the last Slide tumbling panes
	// (< 2 disables). The verdict then recomputes every sliding estimate —
	// value and variance — from the emitted pane history and requires
	// agreement to float rounding.
	Slide int
	// TopK adds a group-by top-3 and a median-quantile query to the window
	// job; the verdict requires finite bounds on every ranked group and a
	// well-ordered quantile interval in every window.
	TopK bool
}

// Report is what a chaos run measured, alongside the verdict Run returns
// as its error.
type Report struct {
	// Seed reproduces the schedule.
	Seed uint64
	// Ops is the executed schedule, in order — the reproduction recipe a
	// failure prints.
	Ops []string
	// Produced / Estimated / LateDroppedInput are the two sides of the
	// invariant: Estimated+LateDroppedInput must equal Produced exactly
	// (up to float rounding).
	Produced         int64
	Estimated        float64
	LateDroppedInput float64
	// Windows counts the non-empty windows the root closed.
	Windows int
	// Kills .. Stalls tally the ops by kind.
	Kills, Restarts, Adds, Removes, Detaches, Attaches, Stalls, Bursts int
	// MaxRecovery is the longest single RestartMember call — checkpoint
	// load, gap replay, and rejoin included.
	MaxRecovery time.Duration
	// Throughput is items/s over the whole run (rescales and crashes
	// included), from the final LiveResult.
	Throughput float64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 12
	}
	if c.PerSlot <= 0 {
		c.PerSlot = 20
	}
	return c
}

// window is the deployment's LiveConfig.Window: with ingest stamps its window
// length; with caller timestamps the tree's own window (1 s in the testbed)
// defines window extents and this only sets the idle timeout (4×) and the
// drain probe.
const window = 25 * time.Millisecond

// eventSpan is the event-time each round advances; lateness is how much
// disorder the jitter impairment may inject (kept well under eventSpan so
// jittered records stay in-horizon — late drops under crash/rescale races
// are still possible and are exactly what LateDroppedInput accounts for).
const (
	eventSpan = 300 * time.Millisecond
	lateness  = eventSpan
)

// epoch anchors event timestamps; any fixed instant works.
var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

// Run executes one chaos schedule and returns the measured Report plus a
// non-nil error for any violated guarantee: a broken count invariant, a
// non-finite estimate or confidence bound, a failed elastic operation, or
// an unrecovered crash.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed)
	rep := &Report{Seed: cfg.Seed}

	dcfg := approxiot.Config{
		Fraction:    0.3,
		Queries:     []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
		Seed:        cfg.Seed,
		Window:      window,
		Partitions:  4,
		LayerShards: 2,
		Checkpoint:  approxiot.NewMemoryCheckpointStore(),
	}
	if cfg.EventTime {
		dcfg.EventTime = true
		dcfg.AllowedLateness = lateness
	}
	if cfg.Slide > 1 {
		dcfg.Slide = cfg.Slide
	}
	if cfg.TopK {
		dcfg.Queries = append(dcfg.Queries, approxiot.TopKOf(3), approxiot.QuantileOf(0.5))
	}
	spec := dcfg.Tree
	if spec.Sources == 0 {
		spec = approxiot.Testbed()
	}
	d, err := approxiot.Open(nil, dcfg)
	if err != nil {
		return rep, fmt.Errorf("chaos: open: %w", err)
	}
	defer d.Close()

	leaves := d.EdgeNodeIDs()[:spec.Layers[0].Nodes]
	h := &harness{cfg: cfg, rng: rng, rep: rep, d: d, spec: spec,
		dead: map[string]bool{}, detached: map[string]bool{}}

	for round := 0; round < cfg.Rounds; round++ {
		if round > 0 {
			h.disturb(leaves, round)
		}
		if err := h.pushRound(round); err != nil {
			return rep, err
		}
		time.Sleep(window / 2)
	}

	// Every guarantee is conditioned on eventual recovery: resurrect the
	// still-dead and re-attach the still-detached before the books close.
	for id := range h.dead {
		if err := h.restart(id); err != nil {
			return rep, err
		}
	}
	for node := range h.detached {
		if err := d.AddEdgeNode(node); err != nil {
			return rep, fmt.Errorf("chaos: final AddEdgeNode(%s): %w", node, err)
		}
		rep.Attaches++
	}

	res, err := d.Close()
	if err != nil {
		return rep, fmt.Errorf("chaos: close: %w", err)
	}
	return rep, h.verdict(res)
}

type harness struct {
	cfg  Config
	rng  *xrand.Rand
	rep  *Report
	d    *approxiot.Deployment
	spec approxiot.TreeSpec

	produced int64
	dead     map[string]bool // member ID → killed, not yet restarted
	detached map[string]bool // leaf node ID → detached
	stalled  int             // slot skipped this round, -1 none
	burst    bool            // double items this round
}

func (h *harness) op(format string, a ...any) {
	h.rep.Ops = append(h.rep.Ops, fmt.Sprintf(format, a...))
}

// disturb applies one random operation (or impairment) before a round's
// pushes. Errors that are legal outcomes of the schedule — shrinking to the
// floor, growing past the partition count — are tolerated; everything else
// is a harness failure recorded in the verdict via panic-free error ops.
func (h *harness) disturb(leaves []string, round int) {
	h.stalled, h.burst = -1, false
	node := leaves[h.rng.Intn(len(leaves))]
	kinds := 6
	if h.cfg.EventTime {
		kinds = 7 // jitter rides on pushRound's timestamping
	}
	switch h.rng.Intn(kinds) {
	case 0:
		if _, err := h.d.AddMember(node); err == nil {
			h.rep.Adds++
			h.op("r%d add %s", round, node)
		}
	case 1:
		if _, err := h.d.RemoveMember(node); err == nil {
			h.rep.Removes++
			h.op("r%d remove %s", round, node)
		}
	case 2:
		members, err := h.d.GroupMembers(node)
		if err != nil {
			return
		}
		for _, m := range members {
			if m.State == "live" {
				if err := h.d.KillMember(m.ID); err == nil {
					h.dead[m.ID] = true
					h.rep.Kills++
					h.op("r%d kill %s", round, m.ID)
				}
				return
			}
		}
	case 3:
		for id := range h.dead {
			if err := h.restart(id); err != nil {
				h.op("r%d FAILED %v", round, err)
			} else {
				h.op("r%d restart %s", round, id)
			}
		}
	case 4:
		if len(h.detached) > 0 {
			for n := range h.detached {
				if err := h.d.AddEdgeNode(n); err == nil {
					delete(h.detached, n)
					h.rep.Attaches++
					h.op("r%d attach %s", round, n)
				}
				return
			}
		}
		// Detach only when no member of the leaf is dead (a detach drains
		// live members; the dead one would be stranded unrecoverable).
		for id := range h.dead {
			if lo, _ := h.memberLeaf(id); lo == node {
				return
			}
		}
		if err := h.d.RemoveEdgeNode(node); err == nil {
			h.detached[node] = true
			h.rep.Detaches++
			h.op("r%d detach %s", round, node)
		}
	case 5:
		h.stalled = h.rng.Intn(h.spec.Sources)
		h.rep.Stalls++
		h.op("r%d stall slot %d", round, h.stalled)
	case 6:
		h.burst = true
		h.rep.Bursts++
		h.op("r%d burst", round)
	}
}

// memberLeaf maps a member ID back to its node ID prefix ("edge1-2-shard1"
// → "edge1-2"; shard-0 members are the node ID itself).
func (h *harness) memberLeaf(memberID string) (string, bool) {
	for i := len(memberID) - 1; i > 0; i-- {
		if memberID[i-1] == '-' && memberID[i] == 's' { // "-shardN" suffix
			return memberID[:i-1], true
		}
	}
	return memberID, false
}

func (h *harness) restart(id string) error {
	start := time.Now()
	if err := h.d.RestartMember(id); err != nil {
		return fmt.Errorf("chaos: RestartMember(%s): %w", id, err)
	}
	if took := time.Since(start); took > h.rep.MaxRecovery {
		h.rep.MaxRecovery = took
	}
	delete(h.dead, id)
	h.rep.Restarts++
	return nil
}

// pushRound feeds every (non-stalled, attached) slot its quota. Event-time
// runs stamp timestamps advancing eventSpan per round with bounded random
// disorder; detached slots are skipped via the topology's SourceRange
// inverse mapping rather than by provoking ErrNodeDetached.
func (h *harness) pushRound(round int) error {
	n := h.cfg.PerSlot
	if h.burst {
		n *= 2
	}
	skip := make(map[int]bool)
	for node := range h.detached {
		for i := 0; i < h.spec.Layers[0].Nodes; i++ {
			if h.leafID(i) == node {
				lo, hi := h.spec.SourceRange(i)
				for s := lo; s < hi; s++ {
					skip[s] = true
				}
			}
		}
	}
	base := epoch.Add(time.Duration(round) * eventSpan)
	step := eventSpan / time.Duration(n)
	for slot := 0; slot < h.spec.Sources; slot++ {
		if slot == h.stalled || skip[slot] {
			continue
		}
		ing, err := h.d.Ingester(slot)
		if err != nil {
			return fmt.Errorf("chaos: Ingester(%d): %w", slot, err)
		}
		items := make([]approxiot.Item, n)
		for i := range items {
			items[i] = approxiot.Item{Value: h.rng.Normal(100, 15)}
			if h.cfg.EventTime {
				ts := base.Add(time.Duration(i) * step)
				// Disorder: pull some records back, never past lateness.
				if h.rng.Bernoulli(0.2) {
					ts = ts.Add(-time.Duration(h.rng.Int63n(int64(lateness / 2))))
				}
				items[i].Ts = ts
			}
		}
		if err := ing.Push(items...); err != nil {
			return fmt.Errorf("chaos: Push(slot %d): %w", slot, err)
		}
		h.produced += int64(n)
	}
	return nil
}

// leafID reconstructs layer-0 node i's ID from the deployment's listing.
func (h *harness) leafID(i int) string { return h.d.EdgeNodeIDs()[i] }

// verdict checks every guarantee against the final result.
func (h *harness) verdict(res *approxiot.LiveResult) error {
	h.rep.Produced = res.Produced
	h.rep.Estimated = res.EstimateCount
	h.rep.LateDroppedInput = res.LateDroppedInput
	h.rep.Windows = len(res.Windows)
	h.rep.Throughput = res.Throughput

	if res.Produced != h.produced {
		return fmt.Errorf("chaos: produced %d, pushed %d — items lost before the sources", res.Produced, h.produced)
	}
	got, want := res.EstimateCount+res.LateDroppedInput, float64(res.Produced)
	if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), want) {
		return fmt.Errorf("chaos: count invariant broken: Σestimated %.3f + lateInput %.3f = %.3f, produced %d (seed %d, ops %v)",
			res.EstimateCount, res.LateDroppedInput, got, res.Produced, h.cfg.Seed, h.rep.Ops)
	}
	for i, w := range res.Windows {
		for _, r := range w.Results {
			if !finite(r.Estimate.Value) || !finite(r.Bound()) {
				return fmt.Errorf("chaos: window %d %v: non-finite estimate %v ± %v (seed %d)",
					i, r.Kind, r.Estimate.Value, r.Bound(), h.cfg.Seed)
			}
			for _, g := range r.Groups {
				if !finite(g.Sum.Value) || !finite(g.Sum.Bound(r.Confidence)) || !finite(g.Count) {
					return fmt.Errorf("chaos: window %d %v group %q: non-finite estimate %v ± %v, count %v (seed %d)",
						i, r.Kind, g.Source, g.Sum.Value, g.Sum.Bound(r.Confidence), g.Count, h.cfg.Seed)
				}
			}
			if q := r.Quantile; q != nil {
				if !finite(q.Value) || !finite(q.Lo) || !finite(q.Hi) || q.Lo > q.Hi {
					return fmt.Errorf("chaos: window %d %v: bad quantile interval %v [%v, %v] (seed %d)",
						i, r.Kind, q.Value, q.Lo, q.Hi, h.cfg.Seed)
				}
			}
		}
	}
	if err := h.checkSliding(res.Windows); err != nil {
		return err
	}
	if len(h.dead) != 0 {
		return fmt.Errorf("chaos: members never recovered: %v", h.dead)
	}
	return nil
}

// checkSliding replays the pane-composition rule over the emitted windows:
// every sliding estimate must equal — in value AND variance — the sum of the
// last Panes tumbling pane estimates, gap-filled zeros included, no matter
// what crashes and rescales the schedule threw at the run.
func (h *harness) checkSliding(windows []approxiot.WindowResult) error {
	slide := h.cfg.Slide
	if slide < 2 {
		return nil
	}
	hist := make(map[approxiot.QueryKind][]stats.Estimate)
	var lastStart int64
	seen := false
	for i, w := range windows {
		if len(w.Sliding) == 0 {
			return fmt.Errorf("chaos: window %d carries no sliding results with slide %d (seed %d)",
				i, slide, h.cfg.Seed)
		}
		gap := 0
		if winDur := w.End.Sub(w.Start); !w.Start.IsZero() && winDur > 0 {
			if seen {
				gap = int((w.Start.UnixNano()-lastStart)/int64(winDur)) - 1
				if gap > slide {
					gap = slide
				}
			}
			lastStart, seen = w.Start.UnixNano(), true
		}
		for _, s := range w.Sliding {
			if !finite(s.Estimate.Value) || !finite(s.Bound()) {
				return fmt.Errorf("chaos: window %d sliding %v: non-finite %v ± %v (seed %d)",
					i, s.Kind, s.Estimate.Value, s.Bound(), h.cfg.Seed)
			}
			for g := 0; g < gap; g++ {
				hist[s.Kind] = append(hist[s.Kind], stats.Estimate{})
			}
			hist[s.Kind] = append(hist[s.Kind], w.Result(s.Kind).Estimate)
			panes := hist[s.Kind]
			if s.Panes > len(panes) {
				return fmt.Errorf("chaos: window %d sliding %v composes %d panes, only %d emitted (seed %d)",
					i, s.Kind, s.Panes, len(panes), h.cfg.Seed)
			}
			var wantV, wantVar float64
			for _, p := range panes[len(panes)-s.Panes:] {
				wantV += p.Value
				wantVar += p.Variance
			}
			if !relClose(s.Estimate.Value, wantV) || !relClose(s.Estimate.Variance, wantVar) {
				return fmt.Errorf("chaos: window %d sliding %v: %v (var %v) != pane recompute %v (var %v) over %d panes (seed %d, ops %v)",
					i, s.Kind, s.Estimate.Value, s.Estimate.Variance, wantV, wantVar, s.Panes, h.cfg.Seed, h.rep.Ops)
			}
		}
	}
	return nil
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
