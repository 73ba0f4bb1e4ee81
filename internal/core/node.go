package core

import (
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stream"
)

// Node executes Algorithm 2 on one computing node of the logical tree. Per
// time interval it accumulates the Ψ store — (W^in, items) pairs, one per
// weight lineage of each sub-stream — and on CloseInterval derives the
// sample size from its cost function, runs its sampler (WHS for ApproxIoT,
// coin-flip for the SRS baseline, passthrough for native execution), and
// hands the weighted sample batches to the caller for forwarding upstream.
//
// The node keeps the latest W^in per sub-stream across intervals, so items
// that arrive in a later interval than their weight (the Fig. 3 case) are
// processed with the carried, up-to-date weight.
//
// Node is not safe for concurrent use; runners own each node from a single
// goroutine (a member's pump, or the simulator's event loop driving it).
type Node struct {
	id      string
	sampler sample.Sampler
	cost    CostFunction

	// strata numbers the node's sub-streams, and everything the node keeps
	// per sub-stream is a slice indexed by slot. A window node shares its
	// member's table — the one the decoder interns into, so a parsed header
	// brings its slot along (IngestWire) — and a standalone node gets one of
	// its own on first use.
	strata  *stream.SourceTable
	weights []carriedWeight // by slot: the latest W^in
	psi     []stream.Batch
	links   []pairLink // parallel to psi
	// lineage holds, by slot, 1 + the psi index of the sub-stream's first
	// weight lineage this interval (0: none yet); further lineages of the
	// same sub-stream chain on through links.
	lineage  []int32
	observed int

	// Ψ item storage (see slabStore): psi's item slices are drawn from
	// slabs, closed holds the pairs of the interval CloseInterval last ended
	// — whose storage the returned batches still view — until Recycle hands
	// it back. slabs is nil for a node nobody recycles for.
	slabs  *slabStore
	closed []stream.Batch
}

// carriedWeight is one sub-stream's carried W^in; an unset one is 1, the
// weight the paper assigns at the original source.
type carriedWeight struct {
	w   float64
	set bool
}

// pairLink is what the node keeps beside one Ψ pair: its sub-stream's slot
// and 1 + the psi index of the sub-stream's next lineage (0: the last).
type pairLink struct{ slot, next int32 }

// NewNode returns a node with the given sampling strategy and budget.
func NewNode(id string, sampler sample.Sampler, cost CostFunction) *Node {
	return &Node{id: id, sampler: sampler, cost: cost}
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// slot returns src's slot in the node's stratum table.
func (n *Node) slot(src stream.SourceID) int32 {
	if n.strata == nil {
		n.strata = stream.NewSourceTable()
	}
	return n.strata.Slot(src)
}

// weight returns the carried W^in of the sub-stream in slot.
func (n *Node) weight(slot int32) float64 {
	if int(slot) < len(n.weights) && n.weights[slot].set {
		return n.weights[slot].w
	}
	return 1
}

// setWeight records the latest W^in of the sub-stream in slot.
func (n *Node) setWeight(slot int32, w float64) {
	n.weights = grown(n.weights, int(slot))
	n.weights[slot] = carriedWeight{w: w, set: true}
}

// IngestBatch receives a weighted batch from a downstream node: the carried
// weight is updated (line 4's Ψ bookkeeping) and the pair joins the current
// interval, merging with an existing pair of the same lineage.
func (n *Node) IngestBatch(b stream.Batch) {
	if len(b.Items) == 0 {
		return
	}
	slot := n.slot(b.Source)
	n.setWeight(slot, b.Weight)
	n.addPair(slot, b.Source, b.Weight, b.Items)
}

// IngestItems receives raw items (from sources, or items whose weight
// arrived in an earlier interval): each sub-stream's pair uses the last
// known weight, defaulting to 1 at the original source (§III-C).
func (n *Node) IngestItems(items []stream.Item) {
	for start := 0; start < len(items); {
		end := start + 1
		src := items[start].Source
		for end < len(items) && items[end].Source == src {
			end++
		}
		slot := n.slot(src)
		n.addPair(slot, src, n.weight(slot), items[start:end])
		start = end
	}
}

// IngestWire is IngestBatch for a batch still on the wire, parsed with the
// node's stratum table: the items [lo, hi) of h are decoded once, straight
// into the tail of their lineage's slab. The wire block is only read.
func (n *Node) IngestWire(h stream.Header, lo, hi int) {
	if lo == hi {
		return
	}
	n.setWeight(h.Slot, h.Weight)
	h.Decode(n.reserve(h.Slot, h.Source, h.Weight, hi-lo), lo)
}

func (n *Node) addPair(slot int32, src stream.SourceID, w float64, items []stream.Item) {
	copy(n.reserve(slot, src, w, len(items)), items) // copies: the node owns its storage
}

// reserve extends the pair of lineage (src, w) — src in slot — by count item
// slots at the tail of its slab and returns them. The slots hold stale items
// of earlier windows: the caller is their only writer and must fill every
// one before anything reads the pair.
func (n *Node) reserve(slot int32, src stream.SourceID, w float64, count int) []stream.Item {
	n.lineage = grown(n.lineage, int(slot))
	idx, prev := int(n.lineage[slot])-1, -1
	for idx >= 0 && n.psi[idx].Weight != w {
		prev, idx = idx, int(n.links[idx].next)-1
	}
	if idx < 0 {
		idx = len(n.psi)
		n.psi = append(n.psi, stream.Batch{Source: src, Weight: w, Items: n.slabs.get(count)})
		n.links = append(n.links, pairLink{slot: slot})
		if prev < 0 {
			n.lineage[slot] = int32(idx + 1)
		} else {
			n.links[prev].next = int32(idx + 1)
		}
	}
	pair := &n.psi[idx]
	have := len(pair.Items)
	if need := have + count; need > cap(pair.Items) {
		bigger := append(n.slabs.get(need), pair.Items...)
		n.slabs.put(pair.Items)
		pair.Items = bigger
	}
	pair.Items = pair.Items[:have+count]
	n.observed += count
	return pair.Items[have:]
}

// Observed returns the number of items received in the current interval.
func (n *Node) Observed() int { return n.observed }

// CloseInterval ends the current interval: the sampler reduces Ψ under the
// cost function's budget and the node resets for the next interval. The
// returned batches carry W^out and are ready to forward to the parent (or,
// at the root, to append to Θ). Their items are views of the node's Ψ
// storage (the sampler works in place): they stay valid until Recycle, and
// indefinitely if Recycle is never called.
func (n *Node) CloseInterval() []stream.Batch {
	if len(n.psi) == 0 {
		return nil
	}
	budget := n.cost.SampleSize(n.observed)
	if wc, ok := n.cost.(WeightedCostFunction); ok {
		var est float64
		for _, p := range n.psi {
			est += p.Weight * float64(len(p.Items))
		}
		budget = wc.SampleSizeWeighted(est)
	}
	out := n.sampler.SampleInterval(n.psi, budget)
	n.closed, n.psi = n.psi, nil
	for _, l := range n.links {
		n.lineage[l.slot] = 0
	}
	n.links = n.links[:0]
	n.observed = 0
	return out
}

// Recycle declares the batches CloseInterval last returned dead — encoded
// for the parent, or queried at the root — and keeps their item storage for
// the intervals to come. Same owner as every other mutation; ingest may
// have resumed in between.
func (n *Node) Recycle() {
	if n.slabs == nil {
		n.slabs = new(slabStore)
	}
	for i := range n.closed {
		n.slabs.put(n.closed[i].Items)
	}
	clear(n.closed)
	if n.psi == nil {
		n.psi = n.closed[:0] // the pair headers serve the next interval too
	}
	n.closed = nil
}

// reopen returns a retired window's node to the state its constructor left
// it in — no carried weights, the sampler rewound to its seed — so the
// window it serves next samples exactly as a freshly built node would. The
// node keeps its slices, its pair headers and its sampler's generator:
// reopening allocates nothing.
func (n *Node) reopen() {
	clear(n.weights)
	n.sampler.Reseed()
}

// NodeStats are the lifetime counters of one live member, summed over its
// window nodes (eventWindows.stats).
type NodeStats struct {
	// Observed counts every item the member buffered into a window.
	Observed int64
	// Emitted counts every item the member forwarded after sampling.
	Emitted int64
	// Intervals counts the windows the member closed.
	Intervals int64
}

// WindowResult is what the root writes per window: the approximate answers
// with error bounds, plus bookkeeping the benchmarks consume.
type WindowResult struct {
	// At is the window-close instant (wall clock live, virtual time in
	// simulation).
	At time.Time
	// Start and End delimit the event-time tumbling window this result
	// covers. Every window of a tree sets them (live with EventTime off the
	// window is one Window of ingest time); a Root closed by hand
	// (Root.CloseWindow) leaves both zero.
	Start, End time.Time
	// Results holds one entry per registered query kind, in order.
	Results []query.Result
	// SampleSize is the number of items aggregated (ζ over all strata).
	SampleSize int64
	// EstimatedInput is Σ ĉ — the estimated number of original items.
	EstimatedInput float64
	// Sliding holds sliding-window estimates composed from the last
	// Config.Slide tumbling panes (pane composition, [10][11] in PAPER.md).
	// Populated only when sliding is enabled; one entry per additive query
	// kind (SUM/COUNT), in registration order.
	Sliding []SlidingResult
}

// Result returns the window's answer for one query kind (zero Result if the
// kind was not registered).
func (w WindowResult) Result(kind query.Kind) query.Result {
	for _, r := range w.Results {
		if r.Kind == kind {
			return r
		}
	}
	return query.Result{}
}

// SlidingResult returns the window's sliding estimate for one query kind
// (zero result and false if sliding is off or the kind does not slide).
func (w WindowResult) SlidingResult(kind query.Kind) (SlidingResult, bool) {
	for _, s := range w.Sliding {
		if s.Kind == kind {
			return s, true
		}
	}
	return SlidingResult{}, false
}

// Root is the datacenter node: it samples its input once more (the root
// runs the same sampling module, §IV-B), accumulates Θ, and at each window
// close executes the registered queries and estimates their error bounds.
type Root struct {
	node   *Node
	engine *query.Engine
	kinds  []query.Kind
}

// NewRoot returns a root node evaluating the given query kinds per window.
func NewRoot(id string, sampler sample.Sampler, cost CostFunction, engine *query.Engine, kinds ...query.Kind) *Root {
	if len(kinds) == 0 {
		kinds = []query.Kind{query.Sum}
	}
	return &Root{node: NewNode(id, sampler, cost), engine: engine, kinds: kinds}
}

// Node exposes the embedded sampling node (ingest endpoints, stats).
func (r *Root) Node() *Node { return r.node }

// IngestBatch forwards to the underlying node.
func (r *Root) IngestBatch(b stream.Batch) { r.node.IngestBatch(b) }

// IngestItems forwards to the underlying node.
func (r *Root) IngestItems(items []stream.Item) { r.node.IngestItems(items) }

// CloseWindow ends the window: the root samples Ψ into Θ (line 16), runs
// the query job over Θ (line 22), and returns result ± error (line 25)
// together with the window's sampled items for latency accounting.
func (r *Root) CloseWindow(at time.Time) (WindowResult, []stream.Batch) {
	theta := r.node.CloseInterval()
	return NewWindowResult(at, r.engine, r.kinds, theta), theta
}

// NewWindowResult runs the registered queries over a window's Θ and packages
// the answers. The live runner uses it to merge sharded root stages: each
// shard's CloseInterval batches carry Eq. 8 weights, so concatenating shard
// outputs into one Θ yields exactly the estimates a single root would have
// produced over the union.
func NewWindowResult(at time.Time, engine *query.Engine, kinds []query.Kind, theta []stream.Batch) WindowResult {
	res := WindowResult{At: at, Results: engine.RunAll(kinds, theta)}
	if len(res.Results) > 0 {
		res.SampleSize = res.Results[0].SampleSize
		res.EstimatedInput = res.Results[0].EstimatedInput
	}
	return res
}
