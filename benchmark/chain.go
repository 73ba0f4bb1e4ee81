package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/tcp"
)

// The hand-chained replay: the workload's tree rebuilt on ONE goroutine from
// nothing but the layers' public functions —
//
//	encode → SendBatch → PollInto → decode → Node.IngestBatch →
//	Node.CloseInterval → encode → … → Root.CloseWindow
//
// — with a span and a count around every call. There is no session, no
// streams runtime and no watermark tracker in it: windows close when the
// replay, which knows the schedule, says event time has passed them. What
// it costs per item is the single-threaded baseline (chain.items_per_s) and
// Σ layer cost (layers.sum_ns_per_item); what the live system costs beyond
// that is the residual outside timing cannot reach.

// Span names of the replay; totals() keys.
const (
	spanReplay    = "chain.replay"
	spanEncode    = "stream.AppendMarshal"
	spanSend      = "bus.SendBatch"
	spanPoll      = "bus.PollInto"
	spanDecode    = "stream.UnmarshalBatchInto"
	spanIngest    = "core.Node.IngestBatch"
	spanNodeClose = "core.Node.CloseInterval"
	spanRootClose = "core.Root.CloseWindow"
	spanLinear    = "query.RunAll(sum,count)"
	spanTopK      = "query.Run(topk)"
	spanQuantile  = "query.Run(quantile)"
)

// layerSpans are the spans whose self time adds up to layers.sum_ns_per_item.
var layerSpans = []string{spanEncode, spanSend, spanPoll, spanDecode, spanIngest, spanNodeClose, spanRootClose}

// chainNode is one tree node of the replay: its input topic's consumer, a
// producer towards its parent, and one sampling node per open event window
// (seeded from the plan's lineage exactly as the live members seed theirs).
type chainNode struct {
	desc        core.NodeDesc
	in          transport.Consumer
	out         transport.Producer
	open        map[int64]*core.Node // by window start, unix nanos
	roots       map[int64]*core.Root // the root node's windows instead of open
	closedBelow int64                // windows starting before this are closed
}

type chain struct {
	sp     spec
	plan   *core.Plan
	bus    transport.Bus
	engine *query.Engine
	rec    *recorder
	levels [][]*chainNode // bottom-up; the last level is the root alone
	valves [sources]transport.Producer
	stop   func()

	// Scratch, reused across calls the way the live hot path reuses its own.
	enc     []byte
	recs    []mq.Record
	polled  []mq.Record
	decoded stream.Batch

	items       int64 // pushed
	records     int64 // sent, all hops
	leafRecords int64
	leafBytes   int64
	leafSends   int64
	lateDropped int64
	lateInput   float64
	results     []core.WindowResult
	rootItems   int64
}

// openChain compiles the workload's plan and wires one consumer and one
// producer per node over the workload's transport.
func openChain(sp spec, seed int64, rec *recorder) (*chain, error) {
	cfg := liveConfig(sp, seed)
	plan, err := core.CompilePlan(core.PlanConfig{
		Spec: cfg.Spec, NewSampler: cfg.NewSampler, Cost: cfg.Cost, Queries: cfg.Queries,
		Seed: cfg.Seed, Partitions: cfg.Partitions,
	})
	if err != nil {
		return nil, err
	}
	c := &chain{sp: sp, plan: plan, rec: rec, engine: query.NewEngine()}
	if sp.tcp {
		broker := mq.NewBroker()
		srv, err := tcp.Listen("127.0.0.1:0", transport.WrapBroker(broker))
		if err != nil {
			return nil, err
		}
		cl, err := tcp.Dial(srv.Addr().String())
		if err != nil {
			srv.Close()
			return nil, err
		}
		c.bus = cl
		c.stop = func() { cl.Close(); srv.Close(); broker.Close() }
	} else {
		mem := transport.NewMem()
		c.bus = mem
		c.stop = func() { mem.Close() }
	}
	for _, td := range plan.Topics() {
		if err := c.bus.CreateTopic(td.Name, td.Partitions, 4096); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, layer := range plan.Layers {
		var level []*chainNode
		for _, desc := range layer {
			in, err := c.bus.NewGroupConsumer(desc.Topic, desc.ID+"-chain")
			if err != nil {
				c.stop()
				return nil, err
			}
			n := &chainNode{desc: desc, in: in, out: c.bus.NewProducer()}
			if desc.IsRoot {
				n.roots = make(map[int64]*core.Root)
			} else {
				n.open = make(map[int64]*core.Node)
			}
			level = append(level, n)
		}
		c.levels = append(c.levels, level)
	}
	for s := range c.valves {
		c.valves[s] = c.bus.NewProducer()
	}
	return c, nil
}

func windowStart(ts time.Time, w time.Duration) int64 {
	ns := ts.UnixNano()
	return ns - ns%int64(w)
}

// send encodes batches into one freshly allocated block (the broker retains
// produced bytes, so scratch is never sent) and lands them with one
// SendBatch — what a valve or a member's sink does per flush.
func (c *chain) send(p transport.Producer, topic string, batches []stream.Batch) (records int, bytes int, err error) {
	h := c.rec.begin(spanEncode)
	c.enc = c.enc[:0]
	c.recs = c.recs[:0]
	var n int64
	offs := make([]int, 0, len(batches)+1)
	for _, b := range batches {
		offs = append(offs, len(c.enc))
		c.enc = b.AppendMarshal(c.enc)
		n += int64(len(b.Items))
	}
	offs = append(offs, len(c.enc))
	block := append([]byte(nil), c.enc...)
	for i, b := range batches {
		c.recs = append(c.recs, mq.Record{Key: []byte(b.Source), Value: block[offs[i]:offs[i+1]:offs[i+1]]})
	}
	c.rec.end(h, n)
	h = c.rec.begin(spanSend)
	err = p.SendBatch(topic, c.recs)
	c.rec.end(h, int64(len(c.recs)))
	c.records += int64(len(c.recs))
	return len(c.recs), len(block), err
}

// push is one source slot's Push: consecutive same-stratum runs become one
// weight-1 batch each, keyed by stratum.
func (c *chain) push(slot int, items []stream.Item) error {
	var batches []stream.Batch
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && items[hi].Source == items[lo].Source {
			hi++
		}
		batches = append(batches, stream.Batch{Source: items[lo].Source, Weight: 1, Items: items[lo:hi]})
		lo = hi
	}
	c.items += int64(len(items))
	n, bytes, err := c.send(c.valves[slot], c.plan.Sources[slot].Topic, batches)
	c.leafSends++
	c.leafRecords += int64(n)
	c.leafBytes += int64(bytes)
	return err
}

// pump drains a node's input topic: poll, decode, and ingest each batch
// into the event window its items belong to. Items whose window is already
// closed are counted as late drops, in items and in estimated input.
func (c *chain) pump(n *chainNode) error {
	for {
		h := c.rec.begin(spanPoll)
		var err error
		c.polled, err = n.in.TryPollInto(c.polled[:0], 256)
		c.rec.end(h, int64(len(c.polled)))
		if err != nil {
			return err
		}
		if len(c.polled) == 0 {
			return nil
		}
		for i := range c.polled {
			h := c.rec.begin(spanDecode)
			err := stream.UnmarshalBatchInto(&c.decoded, c.polled[i].Value)
			c.rec.end(h, int64(len(c.decoded.Items)))
			if err != nil {
				return fmt.Errorf("chain: %s: %w", n.desc.ID, err)
			}
			c.ingest(n, c.decoded)
		}
	}
}

func (c *chain) ingest(n *chainNode, b stream.Batch) {
	for lo := 0; lo < len(b.Items); {
		start := windowStart(b.Items[lo].Ts, c.sp.window)
		hi := lo + 1
		for hi < len(b.Items) && windowStart(b.Items[hi].Ts, c.sp.window) == start {
			hi++
		}
		part := stream.Batch{Source: b.Source, Weight: b.Weight, Items: b.Items[lo:hi]}
		lo = hi
		if start < n.closedBelow {
			c.lateDropped += int64(len(part.Items))
			c.lateInput += b.Weight * float64(len(part.Items))
			continue
		}
		h := c.rec.begin(spanIngest)
		if n.roots != nil {
			root := n.roots[start]
			if root == nil {
				root = c.plan.NewRoot(c.engine)
				n.roots[start] = root
			}
			root.IngestBatch(part)
			c.rootItems += int64(len(part.Items))
		} else {
			node := n.open[start]
			if node == nil {
				node = c.plan.NewNode(n.desc)
				n.open[start] = node
			}
			node.IngestBatch(part)
		}
		c.rec.end(h, int64(len(part.Items)))
	}
}

func dueWindows[V any](open map[int64]V, bound int64) []int64 {
	var due []int64
	for start := range open {
		if start < bound {
			due = append(due, start)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// advance tells the replay that event time has reached wm: every hop is
// drained bottom-up and every window ending at or before wm − lateness is
// closed at each node, its sample forwarded to the parent before the
// parent's own close — the order the watermarks enforce in the live tree.
func (c *chain) advance(wm time.Time) error {
	bound := windowStart(wm.Add(-c.sp.lateness), c.sp.window)
	for _, level := range c.levels {
		for _, n := range level {
			if err := c.pump(n); err != nil {
				return err
			}
			if n.roots != nil {
				c.closeRoot(n, bound)
				continue
			}
			for _, start := range dueWindows(n.open, bound) {
				h := c.rec.begin(spanNodeClose)
				out := n.open[start].CloseInterval()
				c.rec.end(h, 1)
				delete(n.open, start)
				if len(out) == 0 {
					continue
				}
				if _, _, err := c.send(n.out, n.desc.ParentTopic, out); err != nil {
					return err
				}
			}
			if bound > n.closedBelow {
				n.closedBelow = bound
			}
		}
	}
	return nil
}

func (c *chain) closeRoot(n *chainNode, bound int64) {
	for _, start := range dueWindows(n.roots, bound) {
		h := c.rec.begin(spanRootClose)
		win, theta := n.roots[start].CloseWindow(time.Now())
		c.rec.end(h, 1)
		delete(n.roots, start)
		win.Start = time.Unix(0, start).UTC()
		win.End = win.Start.Add(c.sp.window)
		if win.SampleSize > 0 {
			c.results = append(c.results, win)
		}
		// The query layer on its own, over the same Θ: what each kind costs
		// per window whether or not this workload registers it.
		for _, q := range []struct {
			span  string
			kinds []query.Kind
		}{
			{spanLinear, []query.Kind{query.Sum, query.Count}},
			{spanTopK, []query.Kind{query.TopKOf(8)}},
			{spanQuantile, []query.Kind{query.QuantileOf(0.9)}},
		} {
			h := c.rec.begin(q.span)
			c.engine.RunAll(q.kinds, theta)
			c.rec.end(h, 1)
		}
	}
	if bound > n.closedBelow {
		n.closedBelow = bound
	}
}

// endOfStream closes everything still open.
func (c *chain) endOfStream() error {
	return c.advance(time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC))
}

// chainRun is the replay's outcome in the live runs' shape, so the same
// gate checks it.
type chainRun struct {
	run   liveRun
	wall  time.Duration
	chain *chain
}

// replayClosed replays the closed-loop input window by window until the
// wall budget is spent.
func replayClosed(sp spec, seed int64, budget time.Duration, rec *recorder) (*chainRun, error) {
	in := genClosed(sp, seed)
	c, err := openChain(sp, seed, rec)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	scratch := make([]stream.Item, sp.pushItems)
	t0 := time.Now()
	top := rec.begin(spanReplay)
	var w int64
	for ; w == 0 || time.Since(t0) < budget; w++ {
		for ck := 0; ck < sp.perWindow; ck += sp.pushItems {
			for s := 0; s < sources; s++ {
				in.fill(scratch, s, w, ck)
				if err := c.push(s, scratch); err != nil {
					return nil, err
				}
			}
			// Drain the leaf hop as it fills; nothing is due to close yet.
			for _, n := range c.levels[0] {
				if err := c.pump(n); err != nil {
					return nil, err
				}
			}
		}
		if err := c.advance(in.start(w + 1)); err != nil {
			return nil, err
		}
	}
	if err := c.endOfStream(); err != nil {
		return nil, err
	}
	rec.end(top, c.items)
	cr := &chainRun{wall: time.Since(t0), chain: c}
	refs := in.reference()
	cr.run.expected = make(map[int64]winRef, w)
	for i := int64(0); i < w; i++ {
		cr.run.expected[in.start(i).UnixNano()] = refs[i%int64(sp.cycle)]
	}
	cr.fill(sp)
	return cr, nil
}

// replayPaced replays the open-loop schedule tick by tick, flat out: the
// same items with the same event timestamps, late and too-late ones
// included, with event time advancing to each tick's due time.
func replayPaced(sp spec, seed int64, seconds float64, rec *recorder) (*chainRun, error) {
	in := genPaced(sp, seed, seconds)
	c, err := openChain(sp, seed, rec)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	origin := closedEpoch
	var scratch []stream.Item
	t0 := time.Now()
	top := rec.begin(spanReplay)
	for n := 0; n < in.totalTicks; n++ {
		due := origin.Add(time.Duration(n) * sp.tick)
		for s := 0; s < sources; s++ {
			scratch = in.batch(scratch[:0], s, n, due, sp.tick)
			if len(scratch) == 0 {
				continue
			}
			if err := c.push(s, scratch); err != nil {
				return nil, err
			}
		}
		if err := c.advance(due); err != nil {
			return nil, err
		}
	}
	if err := c.endOfStream(); err != nil {
		return nil, err
	}
	rec.end(top, c.items)
	cr := &chainRun{wall: time.Since(t0), chain: c}
	refs, tooLate := in.reference()
	cr.run.tooLate = tooLate
	cr.run.expected = make(map[int64]winRef, len(refs))
	for w, ref := range refs {
		cr.run.expected[origin.Add(time.Duration(w)*sp.window).UnixNano()] = ref
	}
	cr.fill(sp)
	return cr, nil
}

// fill shapes the replay's counts as a live outcome for the gate.
func (cr *chainRun) fill(sp spec) {
	c := cr.chain
	cr.run.sp = sp
	cr.run.pushed, cr.run.items = c.items, c.items
	cr.run.out = outcome{
		windows:          c.results,
		produced:         c.items,
		lateDropped:      c.lateDropped,
		lateDroppedInput: c.lateInput,
	}
}
