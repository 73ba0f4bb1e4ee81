package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
)

// valve is what the two push valves — the live session's Ingester and the
// node session's NodePusher — have in common: the publishing half of one
// source slot. The owner serializes every use under its own mutex.
type valve struct {
	slot      int
	topic     string
	producer  transport.Producer
	bwc       *metrics.BandwidthCounter // private leaf-link byte counter
	from      string                    // watermark origin: this valve's chain identity
	perRecord bool                      // recordAtATime: publish one record per broker append

	// marks tracks, per sub-stream pushed through this valve, the highest
	// event timestamp seen — the sub-stream's low watermark, piggybacked on
	// every record the valve publishes. Nil in processing-time mode, where
	// Ts is re-stamped with the publish instant and nothing is piggybacked.
	marks map[stream.SourceID]time.Time
	// enc / outRecs are the valve's publish scratch: one push queues every
	// same-source run in enc and lands the whole set with a single
	// SendBatch (one topic lock, one consumer wakeup), encoded into one
	// block per push — fresh or the encoder's own, as the bus retains sent
	// bytes or not (batchEncoder; encoderFor, where the valve is built).
	enc     batchEncoder
	outRecs []mq.Record
}

// publish stamps and sends one push. A single indexed pass over the items
// defaults an empty Source to the slot's stratum, stamps Pub with the
// publish instant (and Ts too, where it is zero or the valve runs on
// processing time), adds each value to *truth — item by item, in order, so
// the running total is bit-identical to a per-item accumulator — and cuts
// the items into runs of one sub-stream, each queued as a weight-1 batch
// carrying its sub-stream's advanced low watermark. The runs then land with
// one batched append. A closed bus surfaces as ErrSessionClosed.
func (v *valve) publish(items []stream.Item, truth *paddedFloat) error {
	pub := time.Now()
	pubNanos := pub.UnixNano()
	var (
		defaultSrc stream.SourceID
		src        stream.SourceID
		mark       time.Time
		lo         int
		sum        float64
	)
	if truth != nil {
		truth.mu.Lock()
		sum = truth.v
	}
	for j := range items {
		it := &items[j]
		if it.Source == "" {
			if defaultSrc == "" {
				defaultSrc = stream.SourceID(fmt.Sprintf("source%d", v.slot))
			}
			it.Source = defaultSrc
		}
		it.Pub = pubNanos
		if v.marks == nil || it.Ts.IsZero() {
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
	if truth != nil {
		truth.v = sum
		truth.mu.Unlock()
	}

	err := v.send()
	if errors.Is(err, mq.ErrClosed) {
		return ErrSessionClosed
	}
	return err
}

// queue notes one run of a single sub-stream for the push being assembled,
// recording the run's watermark as the sub-stream's new mark.
func (v *valve) queue(src stream.SourceID, run []stream.Item, mark time.Time) {
	var wm mq.Watermark
	if v.marks != nil {
		v.marks[src] = mark
		wm = mq.Watermark{From: v.from, At: mark}
	}
	v.enc.add(stream.Batch{Source: src, Weight: 1, Items: run}, wm)
}

// send lands the queued runs: one batched append — one topic lock, one
// consumer wakeup, one block for the whole push — or, on the
// equivalence suite's record-at-a-time reference path, one append per run.
func (v *valve) send() error {
	v.bwc.Add(v.enc.payloadBytes())
	if v.perRecord {
		defer v.enc.reset()
		for i, b := range v.enc.batches {
			if _, _, err := v.producer.SendWatermarked(v.topic, []byte(b.Source), b.Marshal(), v.enc.wms[i]); err != nil {
				return err
			}
		}
		return nil
	}
	recs := v.enc.records(v.outRecs[:0])
	err := v.producer.SendBatch(v.topic, recs)
	v.enc.reset()
	// Scrub before recycling: spare capacity must not pin a retained block.
	clear(recs)
	v.outRecs = recs[:0]
	return err
}
