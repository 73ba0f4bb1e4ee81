package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
)

// valve is the publishing half of one source slot's Ingester. The Ingester
// serializes every use under its mutex.
type valve struct {
	slot      int
	topic     string
	src       stream.SourceID // slotSource(slot), named at the first push that needs it
	producer  transport.Producer
	bwc       *metrics.BandwidthCounter // private leaf-link byte counter
	from      string                    // watermark origin: this valve's chain identity
	perRecord bool                      // recordAtATime: publish one record per broker append
	stampTs   bool                      // EventTime off: Ts is the publish instant

	// marks tracks, per sub-stream pushed through this valve, the highest
	// event timestamp seen — the sub-stream's low watermark, piggybacked on
	// every record the valve publishes. last is the instant of the valve's
	// latest send (idle beats included).
	marks map[stream.SourceID]time.Time
	last  time.Time
	// enc / outRecs are the valve's publish scratch: one push queues every
	// same-source run in enc and lands the whole set with a single
	// SendBatch (one topic lock, one consumer wakeup), encoded into the
	// encoder's one block, which every push reuses (batchEncoder).
	enc     batchEncoder
	outRecs []transport.Record
}

// publish stamps and sends one push. A single indexed pass over the items
// defaults an empty Source to the slot's stratum, stamps Pub with the
// publish instant pub (and Ts too, where it is zero or the valve stamps at
// ingest), adds each value to *truth — item by item, in order, so
// the running total is bit-identical to a per-item accumulator — and cuts
// the items into runs of one sub-stream, each queued as a weight-1 batch
// carrying its sub-stream's advanced low watermark. The runs then land with
// one batched append. A closed bus surfaces as ErrSessionClosed.
func (v *valve) publish(pub time.Time, items []stream.Item, truth *paddedFloat) error {
	pubNanos := pub.UnixNano()
	v.last = pub
	var (
		src  stream.SourceID
		mark time.Time
		lo   int
		sum  = truth.v
	)
	for j := range items {
		it := &items[j]
		if it.Source == "" {
			if v.src == "" {
				v.src = slotSource(v.slot)
			}
			it.Source = v.src
		}
		it.Pub = pubNanos
		if v.stampTs || it.Ts.IsZero() {
			it.Ts = pub
		}
		sum += it.Value
		if j == 0 || it.Source != src {
			if j > 0 {
				v.queue(src, items[lo:j], mark)
			}
			lo, src, mark = j, it.Source, v.marks[it.Source]
		}
		if it.Ts.After(mark) {
			mark = it.Ts
		}
	}
	v.queue(src, items[lo:], mark)
	truth.v = sum

	err := v.send()
	if errors.Is(err, mq.ErrClosed) {
		return ErrSessionClosed
	}
	return err
}

// queue notes one run of a single sub-stream for the push being assembled,
// recording the run's watermark as the sub-stream's new mark.
func (v *valve) queue(src stream.SourceID, run []stream.Item, mark time.Time) {
	v.marks[src] = mark
	v.enc.add(stream.Batch{Source: src, Weight: 1, Items: run}, mq.Watermark{From: v.from, At: mark})
}

// send lands the queued runs: one batched append — one topic lock, one
// consumer wakeup, one block for the whole push — or, on the
// equivalence suite's record-at-a-time reference path, one append per run.
func (v *valve) send() error {
	v.bwc.Add(v.enc.payloadBytes())
	recs := v.enc.records(v.outRecs[:0])
	step := len(recs)
	if v.perRecord {
		step = 1
	}
	var err error
	for lo := 0; lo < len(recs) && err == nil; lo += step {
		err = v.producer.SendBatch(v.topic, recs[lo:lo+step])
	}
	v.enc.reset()
	v.outRecs = recs[:0]
	return err
}

// Ingester is the push valve for one source slot: it stamps, batches, paces
// and publishes items into the slot's leaf topic, with backpressure against
// the leaf node's consumer group, and sums the slot's ground truth. Every
// ingest tier hands out the same valve (NodeSession.Pusher, which
// LiveSession.Ingester calls too). Pushes through one valve are serialized
// (the valve preserves per-stratum order); distinct slots push concurrently.
type Ingester struct {
	e        *engine
	leaf     *shardGroup // the layer-0 group this valve feeds; nil where another process runs it
	lagGroup string
	carried  *carriedLag // the leaf topic's, shared with every other valve on it
	rate     float64
	truth    *paddedFloat // the slot's ground-truth sum

	// sent is atomic so observers (tests, telemetry) can read it while a
	// Push is parked in backpressure holding mu.
	sent atomic.Int64

	mu    sync.Mutex
	valve           // the publishing half (under mu)
	epoch time.Time // pacing schedule origin: the valve's first push
	// idle is the idle-beat timer of a valve that stamps at ingest (nil
	// otherwise), on the wall clock and built stopped with the valve. Each
	// push sets it a Window out, and each beat re-arms it (beatIfIdle).
	idle *time.Timer
}

// NodePusher is the name a node session's valve goes by.
type NodePusher = Ingester

// Slot returns the source slot this valve feeds.
func (in *Ingester) Slot() int { return in.slot }

// Sent returns the number of items pushed through this valve so far.
func (in *Ingester) Sent() int64 { return in.sent.Load() }

// Push publishes items into the session: consecutive runs of the same
// sub-stream become one weighted batch (weight 1 — the census), keyed by
// SourceID so a stratum sticks to one partition. Every item's Pub is
// stamped with the wall-clock publish instant (end-to-end latency is
// measured from here). With EventTime off Ts is stamped with the same
// instant; with EventTime on a caller-supplied Ts is the item's event
// timestamp and is preserved (zero Ts defaults to the publish instant).
// Either way the sub-stream's low watermark piggybacks on the published
// records. Items
// with an empty Source default to the slot's stratum ("source<slot>"). Push
// applies backpressure — it blocks while the leaf group's backlog exceeds
// LiveConfig.MaxIngestLag records — and pacing: with LiveConfig.SourceRate
// set, it sleeps off any lead over the rate schedule before returning.
// Returns ErrSessionDraining once the session stops admitting pushes (Close
// started, or FinishIngest) and ErrSessionClosed once it has closed.
func (in *Ingester) Push(items ...stream.Item) error {
	e := in.e
	// The state and the leaf's detach flag are read under mu, and both
	// fences — engine.stopAdmitting and RemoveEdgeNode's — change them and
	// then take mu, so no push a fence let in is still in flight past it.
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := e.ingestAllowed(); err != nil {
		return err
	}
	if in.leaf != nil && in.leaf.isDetached() {
		// Nothing consumes a detached node's topic: an admitted push would
		// strand records and wedge the final drain.
		return fmt.Errorf("%w: %q", ErrNodeDetached, in.leaf.desc.ID)
	}
	if len(items) == 0 {
		return nil
	}
	if in.epoch.IsZero() {
		in.epoch = time.Now() // pacing runs on the wall clock
	}
	if err := in.backpressure(); err != nil {
		return err
	}
	e.markStarted()

	// Ground truth goes item by item into the slot's running sum, so the
	// per-slot total is bit-identical to a per-item accumulator and the
	// final fold (slot order, at shutdown) is deterministic.
	if err := in.publish(e.clock.Now(), items, in.truth); err != nil {
		return err
	}
	if in.idle != nil {
		in.idle.Reset(e.cfg.Window)
	}
	sent := in.sent.Add(int64(len(items)))
	e.produced.Add(int64(len(items)))

	if in.rate > 0 {
		// Pace to the configured rate: sleep off any lead over the ideal
		// sent/rate schedule.
		ahead := time.Duration(float64(sent)/in.rate*float64(time.Second)) - time.Since(in.epoch)
		if ahead > 0 {
			select {
			case <-e.ctx.Done():
			case <-e.drainCh: // Close must not wait out a pacing sleep
			case <-time.After(ahead):
			}
		}
	}
	return nil
}

// carriedLag is one leaf topic's group lag as this process can bound it
// without asking: the last GroupLag answer plus every record the process has
// sent to the topic since. Consumption only lowers the true lag, and
// crash-recovery replay reads the log without moving commits, so the figure
// never understates what this process has put there (records other
// processes send to the topic show at the next probe, as they did between
// two per-push probes). It is kept as the running count of records sent and
// an offset — a probe's answer minus the count read BEFORE that probe — so a
// send racing the probe is counted on top of the answer, never lost under
// it; two probes racing each leave a valid bound.
type carriedLag struct {
	sent   atomic.Int64
	offset atomic.Int64
}

func (c *carriedLag) bound() int64 { return c.offset.Load() + c.sent.Load() }

// pastMark sets the figure just past mark, so the next push probes.
func (c *carriedLag) pastMark(mark int) { c.offset.Store(int64(mark) + 1 - c.sent.Load()) }

// countingProducer is a valve's producer: it tells the topic's carried lag of
// every record before the record is sent, in both sends a valve makes — its
// pushes (SendBatch, batched or a record at a time) and the end-of-stream
// broadcast (SendTo) — so nothing a valve puts on the topic goes uncounted,
// and the publishing half need not know.
type countingProducer struct {
	transport.Producer
	lag *carriedLag
}

func (p countingProducer) SendBatch(topic string, recs []transport.Record) error {
	p.lag.sent.Add(int64(len(recs)))
	return p.Producer.SendBatch(topic, recs)
}

func (p countingProducer) SendTo(topic string, partition int, recs []transport.Record) error {
	p.lag.sent.Add(int64(len(recs)))
	return p.Producer.SendTo(topic, partition, recs)
}

// backpressure blocks while the leaf group's unconsumed backlog exceeds the
// configured high-water mark, so a pusher can never outrun the pipeline into
// unbounded broker memory. The valve does not ask per push — over a remote
// bus the GroupLag probe is a round trip: it admits on the lag it carries
// forward (carriedLag) while that is within the mark and probes — storing
// the answer — only past it, which with a consumer that keeps up is once per
// MaxIngestLag records. It admits exactly when a per-push probe would. A
// probe that fails WAITS instead of failing or admitting: in node mode that
// is usually a startup race (the tier running the leaf group is not up yet),
// and a push is never admitted on a lag no probe has vouched for — the
// guarantee that keeps MaxIngestLag meaningful over a remote backend. A
// closed topic or session fails fast.
func (in *Ingester) backpressure() error {
	e := in.e
	mark := int64(e.cfg.MaxIngestLag)
	if mark < 0 || in.carried.bound() <= mark {
		return nil
	}
	wait := e.cfg.Window / 8
	if wait <= 0 {
		wait = time.Millisecond
	}
	for {
		sent := in.carried.sent.Load()
		lag, err := e.bus.GroupLag(in.topic, in.lagGroup)
		if err == nil {
			in.carried.offset.Store(lag - sent)
			if in.carried.bound() <= mark {
				return nil
			}
		}
		if errors.Is(err, mq.ErrClosed) || errors.Is(err, mq.ErrUnknownTopic) {
			return ErrSessionClosed
		}
		if err := e.ingestAllowed(); err != nil {
			return err
		}
		select {
		case <-e.ctx.Done():
			return ErrSessionClosed
		case <-e.drainCh:
		case <-time.After(wait):
		}
	}
}

// beatIfIdle is the idle timer's callback. It keeps ingest-stamped time
// moving when pushes stop: a valve that stamps at ingest promises that no
// later record is older than the instant it is sent, so one idle for a whole
// window heartbeats every sub-stream it has carried at the current instant,
// and the windows its last pushes filled close on time; the beat re-arms the
// timer. A push that held the mutex when the timer fired has set it again,
// and the beat waits for that. Beats follow Push's admission rules: once the
// session stops admitting or the leaf is detached, the timer neither beats
// nor re-arms.
func (in *Ingester) beatIfIdle() {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.e.clock.Now()
	if at := in.idleBeatAt(); at.IsZero() || now.Before(at) {
		return
	}
	in.last = now
	for src := range in.marks {
		in.queue(src, nil, now)
	}
	_ = in.send() // a failed beat is the next one's to repeat
	in.idle.Reset(in.e.cfg.Window)
}

// idleBeatAt is the instant the valve's next idle beat is due: a Window after
// its last send, or zero for a valve that beats no more — it has carried no
// sub-stream, the session stopped admitting, or its leaf is detached. Callers
// hold in.mu.
func (in *Ingester) idleBeatAt() time.Time {
	if len(in.marks) == 0 || in.e.ingestAllowed() != nil || in.leaf != nil && in.leaf.isDetached() {
		return time.Time{}
	}
	return in.last.Add(in.e.cfg.Window)
}

// slotSource is source slot's default stratum: the Source of the items
// pushed through it without one.
func slotSource(slot int) stream.SourceID {
	return stream.SourceID("source" + strconv.Itoa(slot))
}

// sendEOS publishes an end-of-stream watermark heartbeat for every
// sub-stream that ever pushed through this valve, in SourceID order — or for
// the slot's default stratum if nothing ever did: a zero-item batch carrying
// eosWatermark, which closes every remaining event window at the leaf and
// lets the close wave cascade to the root. An unused valve still speaks:
// every member statically expects it (Plan.ExpectedProducers), and
// resolving the expectation in-band makes the close cascade deterministic
// instead of waiting on the idle timeout. End of stream is topic-global, so
// it is broadcast to EVERY partition rather than keyed: after a rebalance a
// member can buffer windows for sub-streams whose partitions it no longer
// owns, and a keyed end-of-stream would never reach it.
func (in *Ingester) sendEOS() {
	in.mu.Lock()
	defer in.mu.Unlock()
	srcs := make([]stream.SourceID, 0, len(in.marks)+1)
	for src := range in.marks {
		srcs = append(srcs, src)
	}
	if len(srcs) == 0 {
		srcs = append(srcs, slotSource(in.slot))
	}
	slices.Sort(srcs)
	var signoffs []transport.Record
	for _, src := range srcs {
		signoffs = append(signoffs, transport.Record{
			Key:       []byte(src),
			Value:     heartbeat(src).Marshal(),
			Watermark: mq.Watermark{From: in.from, At: eosWatermark},
		})
	}
	broadcast(in.producer, in.topic, in.e.plan.Partitions, in.bwc, signoffs...)
}
