// Package stream defines the data model every ApproxIoT layer exchanges:
// items generated by IoT sources, weighted batches (the (W, I) pairs of
// Algorithm 2), and per-sub-stream weight maps. It also provides the binary
// wire codec used when batches cross mq topics or simulated WAN links, so
// that bandwidth accounting reflects real serialized bytes.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// SourceID identifies a data source. In ApproxIoT each source forms one
// stratum/sub-stream (§II-B1); sources with identical distributions may share
// an ID to be stratified together.
type SourceID string

// Item is one reading produced by an IoT source.
type Item struct {
	// Source is the sub-stream this item belongs to.
	Source SourceID
	// Ts is the event timestamp: when the reading happened at the source.
	// Event-time windowing assigns the item to its tumbling window by Ts,
	// however late or out of order it arrives. Generators stamp virtual
	// time; live pushers may supply their own (a zero Ts defaults to the
	// publish instant).
	Ts time.Time
	// Value is the measured quantity the query aggregates.
	Value float64
	// Pub is the wall-clock publish instant, stamped by the live ingestion
	// valve and carried end to end so the root can measure genuine
	// source-to-root latency even after edge nodes re-batch items.
	// Simulated runs leave it zero (their latency uses Ts, which is the
	// same instant in virtual time).
	Pub time.Time
}

// Batch is the (weight, items) pair that flows between nodes: a set of items
// from one sub-stream together with the output weight assigned by the sending
// node's sampler (W^out in Algorithm 1). A weight of 1 means "census so far".
type Batch struct {
	Source SourceID
	Weight float64
	Items  []Item
}

// Values extracts the item values, the form the root's query consumes.
func (b Batch) Values() []float64 {
	vals := make([]float64, len(b.Items))
	for i, it := range b.Items {
		vals[i] = it.Value
	}
	return vals
}

// Clone deep-copies the batch. Samplers hand batches across goroutine
// boundaries in live mode; cloning at the boundary keeps ownership clear
// (copy slices at boundaries).
func (b Batch) Clone() Batch {
	items := make([]Item, len(b.Items))
	copy(items, b.Items)
	return Batch{Source: b.Source, Weight: b.Weight, Items: items}
}

// WeightMap carries the per-sub-stream input weights a node has last seen
// (W^in in Algorithm 1). Missing entries default to weight 1, the value the
// paper assigns at the original source.
type WeightMap map[SourceID]float64

// Get returns the weight for src, defaulting to 1 for unknown sub-streams.
func (m WeightMap) Get(src SourceID) float64 {
	if m == nil {
		return 1
	}
	if w, ok := m[src]; ok {
		return w
	}
	return 1
}

// Set records the latest weight for src, allocating lazily.
func (m *WeightMap) Set(src SourceID, w float64) {
	if *m == nil {
		*m = make(WeightMap)
	}
	(*m)[src] = w
}

// Wire codec. Format (little endian):
//
//	u8      version (2)
//	uvarint len(source) | source bytes
//	f64     weight
//	uvarint item count
//	item*N  f64 value, i64 unix-nano event timestamp, i64 unix-nano
//	        publish timestamp (0 = unset)
const codecVersion = 2

// itemWireSize is the serialized size of one item payload.
const itemWireSize = 24

var (
	// ErrCodecVersion reports an unsupported wire version byte.
	ErrCodecVersion = errors.New("stream: unsupported codec version")
	// ErrTruncated reports a batch that ends before its declared length.
	ErrTruncated = errors.New("stream: truncated batch")
)

// WireSize returns the exact encoded size of the batch in bytes without
// encoding it. netsim uses this for bandwidth accounting on the fast path.
func (b Batch) WireSize() int {
	n := 1 // version
	n += uvarintLen(uint64(len(b.Source))) + len(b.Source)
	n += 8 // weight
	n += uvarintLen(uint64(len(b.Items)))
	n += itemWireSize * len(b.Items)
	return n
}

// Marshal encodes the batch with the wire codec.
func (b Batch) Marshal() []byte {
	return b.AppendMarshal(make([]byte, 0, b.WireSize()))
}

// AppendMarshal encodes the batch onto buf and returns the extended slice.
// Callers that own their buffers (and hand encoded bytes to consumers that
// do not retain them) can reuse one buffer across batches to avoid the
// per-batch allocation Marshal pays. Note the mq broker retains produced
// values in its partition logs (zero-copy append), so a reused buffer must
// never be sent: the hot produce path sizes one fresh block per flush from
// WireSize, which is exact, and AppendMarshals every batch of the flush
// straight into it (the batchEncoder in internal/core — one allocation per
// flush instead of one Marshal per batch, and the block is never written
// again); anything simpler should keep using Marshal.
func (b Batch) AppendMarshal(buf []byte) []byte {
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(b.Source)))
	buf = append(buf, b.Source...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Weight))
	buf = binary.AppendUvarint(buf, uint64(len(b.Items)))
	for _, it := range b.Items {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Value))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Ts.UnixNano()))
		var pub int64
		if !it.Pub.IsZero() {
			pub = it.Pub.UnixNano()
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pub))
	}
	return buf
}

// UnmarshalBatch decodes a batch previously produced by Marshal.
func UnmarshalBatch(data []byte) (Batch, error) {
	var b Batch
	if err := UnmarshalBatchInto(&b, data); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// UnmarshalBatchInto decodes data into b, reusing b's Items capacity and —
// when the batch carries the same sub-stream as the previous decode — b's
// Source string. This is the hot-path form: a pipeline stage that decodes
// one batch per message can hold a single scratch Batch and decode with
// zero steady-state allocations (ingest stages copy items out, so aliasing
// the scratch storage is safe).
func UnmarshalBatchInto(b *Batch, data []byte) error {
	if len(data) < 1 {
		return ErrTruncated
	}
	if data[0] != codecVersion {
		return fmt.Errorf("%w: %d", ErrCodecVersion, data[0])
	}
	data = data[1:]

	srcLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data[n:])) < srcLen {
		return ErrTruncated
	}
	data = data[n:]
	if string(b.Source) != string(data[:srcLen]) {
		b.Source = SourceID(data[:srcLen])
	}
	data = data[srcLen:]

	if len(data) < 8 {
		return ErrTruncated
	}
	b.Weight = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]

	count, n := binary.Uvarint(data)
	if n <= 0 {
		return ErrTruncated
	}
	data = data[n:]
	// Divide instead of multiplying: a crafted count near 2^64 would wrap
	// count*itemWireSize past the length check and panic in make below.
	if count > uint64(len(data))/itemWireSize {
		return ErrTruncated
	}
	if uint64(cap(b.Items)) >= count {
		b.Items = b.Items[:count]
	} else {
		b.Items = make([]Item, count)
	}
	for i := range b.Items {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		ts := int64(binary.LittleEndian.Uint64(data[8:]))
		pub := int64(binary.LittleEndian.Uint64(data[16:]))
		it := Item{Source: b.Source, Value: v, Ts: time.Unix(0, ts).UTC()}
		if pub != 0 {
			it.Pub = time.Unix(0, pub).UTC()
		}
		b.Items[i] = it
		data = data[itemWireSize:]
	}
	return nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
