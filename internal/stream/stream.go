// Package stream defines the data model every ApproxIoT layer exchanges:
// items generated by IoT sources, weighted batches (the (W, I) pairs of
// Algorithm 2), and per-sub-stream weight maps. It also provides the binary
// wire codec used when batches cross mq topics or simulated WAN links, so
// that bandwidth accounting reflects real serialized bytes.
package stream

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// Pub is the wall-clock publish instant in unix nanoseconds (0 = unset),
	// stamped by the live ingestion valve and carried end to end so the
	// root can measure genuine source-to-root latency even after edge nodes
	// re-batch items. It is the wire's own form, so a hop neither converts
	// it on the way in nor on the way out. Simulated runs leave it zero
	// (their latency uses Ts, which is the same instant in virtual time).
	Pub int64
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

// GroupBySource clusters batches by sub-stream: it stably sorts order —
// indices into batches — by the batches' Source, then appends to starts the
// position in order where each sub-stream's run begins, and finally
// len(order). Sub-stream j's batches are order[starts[j]:starts[j+1]], the
// sub-streams come in SourceID order, and a sub-stream's batches keep their
// order in order. An order already sorted costs one linear check.
func GroupBySource(batches []Batch, order, starts []int32) []int32 {
	bySource := func(a, b int32) int { return cmp.Compare(batches[a].Source, batches[b].Source) }
	if !slices.IsSortedFunc(order, bySource) {
		slices.SortStableFunc(order, bySource)
	}
	for k, i := range order {
		if k == 0 || batches[i].Source != batches[order[k-1]].Source {
			starts = append(starts, int32(k))
		}
	}
	return append(starts, int32(len(order)))
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
// do not keep them past the call) can reuse one buffer across batches to
// avoid the per-batch allocation Marshal pays. A bus send is such a
// consumer — the broker copies what it keeps — so the hot produce path
// sizes its block from WireSize, which is exact, and AppendMarshals every
// batch of a flush straight into it (the batchEncoder in internal/core: the
// same block every flush, no allocation once it has grown to the largest
// flush); anything simpler should keep using Marshal.
func (b Batch) AppendMarshal(buf []byte) []byte {
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(b.Source)))
	buf = append(buf, b.Source...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Weight))
	buf = binary.AppendUvarint(buf, uint64(len(b.Items)))
	// The item block is extended once and filled by index: no per-item
	// append, and no copy of the item out of the slice.
	off, need := len(buf), itemWireSize*len(b.Items)
	if cap(buf)-off >= need {
		buf = buf[:off+need]
	} else {
		buf = append(buf, make([]byte, need)...)
	}
	wire := buf[off:]
	for i := range b.Items {
		it := &b.Items[i]
		w := wire[i*itemWireSize:][:itemWireSize]
		binary.LittleEndian.PutUint64(w[0:8], math.Float64bits(it.Value))
		binary.LittleEndian.PutUint64(w[8:16], uint64(it.Ts.UnixNano()))
		binary.LittleEndian.PutUint64(w[16:24], uint64(it.Pub))
	}
	return buf
}

// SourceTable is a stratum table: it interns the sub-stream names a decoding
// owner reads off the wire and numbers them with dense slots, so a record
// costs one string look-up and no allocation once its sub-stream has been
// seen, and everything the owner keeps per sub-stream can be a slice indexed
// by slot instead of a map keyed by name. A slot is assigned on first sight
// and never reused or forgotten: the table grows with the distinct
// sub-streams its owner has decoded. The table also keeps its slots in
// SourceID order, re-sorted only when a new name arrives, for owners that
// must visit sub-streams deterministically. Slots are a process-local
// numbering and are never serialized. The zero value is an empty table; it
// is not safe for concurrent use.
type SourceTable struct {
	slots  map[string]int32
	ids    []SourceID // by slot
	sorted []int32    // slots in SourceID order, valid while !dirty
	dirty  bool
}

// NewSourceTable returns an empty stratum table.
func NewSourceTable() *SourceTable { return new(SourceTable) }

// intern returns the SourceID and slot for name, allocating the name on first
// sight.
func (t *SourceTable) intern(name []byte) (SourceID, int32) {
	if slot, ok := t.slots[string(name)]; ok { // no allocation: the conversion is only a map key
		return t.ids[slot], slot
	}
	return t.add(SourceID(name))
}

func (t *SourceTable) add(id SourceID) (SourceID, int32) {
	if t.slots == nil {
		t.slots = make(map[string]int32)
	}
	slot := int32(len(t.ids))
	t.slots[string(id)] = slot
	t.ids = append(t.ids, id)
	t.dirty = true
	return id, slot
}

// Slot returns id's slot, assigning one on first sight.
func (t *SourceTable) Slot(id SourceID) int32 {
	if slot, ok := t.slots[string(id)]; ok {
		return slot
	}
	_, slot := t.add(id)
	return slot
}

// ID returns the sub-stream of slot.
func (t *SourceTable) ID(slot int32) SourceID { return t.ids[slot] }

// Sorted returns every slot in SourceID order. The slice is the table's and
// valid until the next name is interned.
func (t *SourceTable) Sorted() []int32 {
	if t.dirty {
		t.sorted = t.sorted[:0]
		for slot := range t.ids {
			t.sorted = append(t.sorted, int32(slot))
		}
		slices.SortFunc(t.sorted, func(a, b int32) int { return cmp.Compare(t.ids[a], t.ids[b]) })
		t.dirty = false
	}
	return t.sorted
}

// Header is a parsed batch header over the wire block it came from: the
// batch's sub-stream, weight and item count, plus a read-only view of the
// still-encoded items. A hop reads timestamps straight off it (TsNanos,
// PubNanos) to assign items to windows and decodes each run of items exactly
// once, into its final place (Decode).
type Header struct {
	Source SourceID
	// Slot is Source's slot in the stratum table the header was parsed
	// with, or -1 when it was parsed without one.
	Slot   int32
	Weight float64
	Count  int
	// wire is the encoded item block: exactly Count*itemWireSize bytes.
	wire []byte
}

// parseHeader validates a wire batch and splits it into its header fields
// and item block. It is the one place the format's framing is checked.
func parseHeader(data []byte) (source []byte, weight float64, wire []byte, err error) {
	if len(data) < 1 {
		return nil, 0, nil, ErrTruncated
	}
	if data[0] != codecVersion {
		return nil, 0, nil, fmt.Errorf("%w: %d", ErrCodecVersion, data[0])
	}
	data = data[1:]

	srcLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data[n:])) < srcLen {
		return nil, 0, nil, ErrTruncated
	}
	data = data[n:]
	source, data = data[:srcLen], data[srcLen:]

	if len(data) < 8 {
		return nil, 0, nil, ErrTruncated
	}
	weight = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]

	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, nil, ErrTruncated
	}
	data = data[n:]
	// Divide instead of multiplying: a crafted count near 2^64 would wrap
	// count*itemWireSize past the length check and panic in the callers'
	// allocations.
	if count > uint64(len(data))/itemWireSize {
		return nil, 0, nil, ErrTruncated
	}
	return source, weight, data[:count*itemWireSize], nil
}

// ParseHeader validates an encoded batch and returns its header, with the
// sub-stream name interned through the stratum table names and its slot
// there. A nil table allocates the name every time and gives no slot (-1).
// Nothing is decoded yet and data is only read, never retained past the
// Header's own lifetime.
func ParseHeader(data []byte, names *SourceTable) (Header, error) {
	source, weight, wire, err := parseHeader(data)
	if err != nil {
		return Header{}, err
	}
	h := Header{Slot: -1, Weight: weight, Count: len(wire) / itemWireSize, wire: wire}
	if names != nil {
		h.Source, h.Slot = names.intern(source)
	} else {
		h.Source = SourceID(source)
	}
	return h, nil
}

// TsNanos returns item i's event timestamp in unix nanoseconds, read off the
// wire without decoding the item.
func (h Header) TsNanos(i int) int64 {
	return int64(binary.LittleEndian.Uint64(h.wire[i*itemWireSize+8:]))
}

// TsRun returns the end hi of the longest run of items [lo, hi) whose event
// timestamps all lie in [start, end) — how a hop finds the items of one
// window without decoding any.
func (h Header) TsRun(lo int, start, end int64) int {
	for w := h.wire[lo*itemWireSize:]; len(w) >= itemWireSize; w = w[itemWireSize:] {
		if ts := int64(binary.LittleEndian.Uint64(w[8:16])); ts < start || ts >= end {
			break
		}
		lo++
	}
	return lo
}

// PubNanos returns item i's publish instant in unix nanoseconds (0 = unset),
// read off the wire without decoding the item.
func (h Header) PubNanos(i int) int64 {
	return int64(binary.LittleEndian.Uint64(h.wire[i*itemWireSize+16:]))
}

// Decode fills dst with the items [lo, lo+len(dst)) of the batch. The caller
// passes the storage the items are to live in — the reserved tail of a Ψ
// slab on a live hop — so decoding is the only copy.
func (h Header) Decode(dst []Item, lo int) {
	decodeItems(dst, h.Source, h.wire[lo*itemWireSize:])
}

// decodeItems is the codec's one item-decode loop: it fills dst from the
// first len(dst) encoded items of wire.
func decodeItems(dst []Item, src SourceID, wire []byte) {
	wire = wire[:len(dst)*itemWireSize]
	for i := range dst {
		w := wire[i*itemWireSize:][:itemWireSize]
		ts := int64(binary.LittleEndian.Uint64(w[8:16]))
		it := &dst[i]
		it.Source = src
		it.Value = math.Float64frombits(binary.LittleEndian.Uint64(w[0:8]))
		// Split by hand: time.Unix(0, ts) would take its out-of-range path
		// (two divisions and a branch) for every item.
		it.Ts = time.Unix(ts/1e9, ts%1e9).UTC()
		it.Pub = int64(binary.LittleEndian.Uint64(w[16:24]))
	}
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
// Source string. It is ParseHeader plus Decode into storage the Batch owns:
// the form for callers that want a self-contained Batch (tests, tools, the
// checkpoint reader). A live hop decodes into Ψ instead and never holds a
// scratch batch.
func UnmarshalBatchInto(b *Batch, data []byte) error {
	source, weight, wire, err := parseHeader(data)
	if err != nil {
		return err
	}
	if string(b.Source) != string(source) {
		b.Source = SourceID(source)
	}
	b.Weight = weight
	if count := len(wire) / itemWireSize; cap(b.Items) >= count {
		b.Items = b.Items[:count]
	} else {
		b.Items = make([]Item, count)
	}
	decodeItems(b.Items, b.Source, wire)
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
