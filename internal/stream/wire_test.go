package stream

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"
)

// The codec's bytes are a contract with every deployed peer and retained
// log: one encoded batch, pinned. A change that moves a byte fails here
// before it fails against a broker holding yesterday's records.
func TestGoldenBytes(t *testing.T) {
	ts := time.Date(2018, 7, 2, 10, 0, 0, 123456789, time.UTC)
	b := Batch{
		Source: "sensor-42",
		Weight: 1.5,
		Items: []Item{
			{Source: "sensor-42", Value: 3.25, Ts: ts, Pub: ts.Add(time.Second).UnixNano()},
			{Source: "sensor-42", Value: -17, Ts: ts.Add(time.Millisecond)},
		},
	}
	// Written by the encoder as it stood before Item.Pub became an int64.
	const golden = "02" + // version
		"09" + "73656e736f722d3432" + // len, "sensor-42"
		"000000000000f83f" + // weight 1.5
		"02" + // two items
		"0000000000000a40" + "150d009bec843d15" + "15d79ad6ec843d15" + // 3.25, ts, pub = ts+1s
		"00000000000031c0" + "554f0f9bec843d15" + "0000000000000000" // -17, ts+1ms, no pub
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("encoding moved:\n got %x\nwant %x", got, want)
	}
	// Appending onto a buffer with and without room takes the two branches
	// of the single extension; both must produce the same bytes.
	for _, buf := range [][]byte{nil, make([]byte, 0, 4), make([]byte, 0, 1024)} {
		if got := b.AppendMarshal(buf); !bytes.Equal(got, want) {
			t.Fatalf("AppendMarshal onto cap %d: %x", cap(buf), got)
		}
	}
	out, err := UnmarshalBatch(want)
	if err != nil || !reflect.DeepEqual(out, b) {
		t.Fatalf("golden bytes decode to %+v (%v), want %+v", out, err, b)
	}
}

// ParseHeader + Decode is UnmarshalBatchInto by another route: same
// validation, same items, whatever sub-range is decoded.
func TestHeaderDecodeMatchesUnmarshal(t *testing.T) {
	in := benchBatch(37)
	in.Items[5].Pub = 99
	in.Items[36].Ts = time.Unix(0, -5).UTC() // before the epoch: the slow path of the timestamp split
	enc := in.Marshal()
	want, err := UnmarshalBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	names := NewSourceTable()
	h, err := ParseHeader(enc, names)
	if err != nil {
		t.Fatal(err)
	}
	if h.Source != want.Source || h.Weight != want.Weight || h.Count != len(want.Items) {
		t.Fatalf("header %+v, want %s/%g/%d", h, want.Source, want.Weight, len(want.Items))
	}
	for _, r := range [][2]int{{0, 37}, {0, 0}, {36, 37}, {5, 20}} {
		got := make([]Item, r[1]-r[0])
		h.Decode(got, r[0])
		if !reflect.DeepEqual(got, want.Items[r[0]:r[1]]) {
			t.Fatalf("Decode [%d,%d) differs from UnmarshalBatch", r[0], r[1])
		}
	}
	for i, it := range want.Items {
		if h.TsNanos(i) != it.Ts.UnixNano() || h.PubNanos(i) != it.Pub {
			t.Fatalf("item %d: wire ts/pub %d/%d, decoded %d/%d", i, h.TsNanos(i), h.PubNanos(i), it.Ts.UnixNano(), it.Pub)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := ParseHeader(enc[:cut], names); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
		}
	}
}

func TestTsRun(t *testing.T) {
	b := Batch{Source: "s", Weight: 1}
	for _, ts := range []int64{10, 19, 15, 20, 9, 10} {
		b.Items = append(b.Items, Item{Ts: time.Unix(0, ts).UTC()})
	}
	h, err := ParseHeader(b.Marshal(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lo, want int }{{0, 3}, {1, 3}, {3, 3}, {4, 4}, {5, 6}, {6, 6}} {
		if got := h.TsRun(c.lo, 10, 20); got != c.want {
			t.Fatalf("TsRun(%d, 10, 20) = %d, want %d", c.lo, got, c.want)
		}
	}
}

// A sub-stream's name is allocated once per table, not once per record —
// including when consecutive records alternate between sub-streams, the case
// UnmarshalBatchInto's one-entry reuse cannot serve.
func TestSourceTableInternsWithoutAllocating(t *testing.T) {
	a := Batch{Source: "sensor-a", Weight: 1, Items: make([]Item, 2)}.Marshal()
	b := Batch{Source: "sensor-b", Weight: 1, Items: make([]Item, 2)}.Marshal()
	names := NewSourceTable()
	first, err := ParseHeader(a, names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHeader(b, names); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ha, _ := ParseHeader(a, names)
		hb, _ := ParseHeader(b, names)
		if ha.Source != "sensor-a" || hb.Source != "sensor-b" {
			t.Fatal("interned the wrong name")
		}
	})
	if allocs != 0 {
		t.Fatalf("alternating sub-streams allocate %.0f per pair of records", allocs)
	}
	if len(names.Sorted()) != 2 {
		t.Fatalf("table holds %d names, want 2", len(names.Sorted()))
	}
	// The interned name owns its bytes: it must not view the wire block.
	a[2] ^= 0xff
	if first.Source != "sensor-a" {
		t.Fatal("interned name aliases the wire block")
	}
	// A nil table still decodes, allocating the name each time.
	if h, err := ParseHeader(b, nil); err != nil || h.Source != "sensor-b" {
		t.Fatalf("nil table: %+v, %v", h, err)
	}
}

// A stratum table numbers sub-streams densely in order of first sight, hands
// a header its slot, and keeps its slots in SourceID order — re-sorted when a
// new name arrives, never renumbered.
func TestSourceTableSlots(t *testing.T) {
	names := NewSourceTable()
	for i, name := range []SourceID{"m", "c", "x", "c", "m"} {
		h, err := ParseHeader(Batch{Source: name, Weight: 1}.Marshal(), names)
		if err != nil {
			t.Fatal(err)
		}
		want := map[SourceID]int32{"m": 0, "c": 1, "x": 2}[name]
		if h.Slot != want || names.ID(h.Slot) != name || names.Slot(name) != want {
			t.Fatalf("record %d (%s): slot %d, want %d", i, name, h.Slot, want)
		}
	}
	if got := names.Sorted(); !reflect.DeepEqual(got, []int32{1, 0, 2}) {
		t.Fatalf("sorted slots %v, want c m x = [1 0 2]", got)
	}
	if names.Slot("a") != 3 || !reflect.DeepEqual(names.Sorted(), []int32{3, 1, 0, 2}) {
		t.Fatalf("a new name: slot %d, sorted %v", names.Slot("a"), names.Sorted())
	}
	if h, err := ParseHeader(Batch{Source: "m"}.Marshal(), nil); err != nil || h.Slot != -1 {
		t.Fatalf("nil table: slot %d, %v", h.Slot, err)
	}
}

// FuzzBatchDecode holds the decoder that writes into Ψ slabs to: error, or
// the re-encoding equals the consumed prefix byte for byte; never panic,
// never produce more items than len(data)/24 could hold. ParseHeader+Decode
// and UnmarshalBatchInto must agree on every input.
func FuzzBatchDecode(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzBatchDecode: a valid batch, an
	// empty one, a count near 2^64, a wrong version, non-minimal uvarints,
	// and the valid batch cut at every header boundary.
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Batch
		errInto := UnmarshalBatchInto(&b, data)
		h, err := ParseHeader(data, NewSourceTable())
		if (err == nil) != (errInto == nil) {
			t.Fatalf("ParseHeader err %v, UnmarshalBatchInto err %v", err, errInto)
		}
		if err != nil {
			return
		}
		if h.Count > len(data)/itemWireSize {
			t.Fatalf("%d items from %d bytes", h.Count, len(data))
		}
		items := make([]Item, h.Count)
		h.Decode(items, 0)
		if h.Source != b.Source || math.Float64bits(h.Weight) != math.Float64bits(b.Weight) || len(items) != len(b.Items) {
			t.Fatalf("header %+v disagrees with UnmarshalBatchInto %s/%g/%d", h, b.Source, b.Weight, len(b.Items))
		}
		// Re-encode. The consumed prefix ends where the item block does; the
		// wire view shares data's backing array, so its offset is the
		// difference of the capacities.
		consumed := cap(data) - cap(h.wire) + len(h.wire)
		enc := Batch{Source: h.Source, Weight: h.Weight, Items: items}.Marshal()
		if !bytes.Equal(enc, b.Marshal()) {
			t.Fatal("the two decode routes re-encode differently")
		}
		if len(enc) == consumed {
			if !bytes.Equal(enc, data[:consumed]) {
				t.Fatalf("re-encoding differs from the consumed prefix:\n got %x\nwant %x", enc, data[:consumed])
			}
			return
		}
		// The only slack the format has is a length or count written as a
		// longer-than-minimal uvarint: the re-encoding is then shorter, and
		// everything after the varints — the item block — still matches.
		if len(enc) > consumed || !bytes.Equal(enc[len(enc)-len(h.wire):], h.wire) {
			t.Fatalf("re-encoding (%d B) does not account for the consumed prefix (%d B)", len(enc), consumed)
		}
	})
}
