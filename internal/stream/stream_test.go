package stream

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/approxiot/approxiot/internal/xrand"
)

func testBatch() Batch {
	ts := time.Date(2018, 7, 2, 10, 0, 0, 123456789, time.UTC)
	return Batch{
		Source: "sensor-42",
		Weight: 1.5,
		Items: []Item{
			{Source: "sensor-42", Value: 3.25, Ts: ts},
			{Source: "sensor-42", Value: -17, Ts: ts.Add(time.Millisecond)},
			{Source: "sensor-42", Value: 0, Ts: ts.Add(2 * time.Millisecond)},
		},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	in := testBatch()
	out, err := UnmarshalBatch(in.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBatch: %v", err)
	}
	if out.Source != in.Source || out.Weight != in.Weight || len(out.Items) != len(in.Items) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Items {
		if out.Items[i].Value != in.Items[i].Value {
			t.Errorf("item %d value = %g, want %g", i, out.Items[i].Value, in.Items[i].Value)
		}
		if !out.Items[i].Ts.Equal(in.Items[i].Ts) {
			t.Errorf("item %d ts = %v, want %v", i, out.Items[i].Ts, in.Items[i].Ts)
		}
		if out.Items[i].Source != in.Source {
			t.Errorf("item %d source = %q, want %q", i, out.Items[i].Source, in.Source)
		}
	}
}

func TestMarshalEmptyBatch(t *testing.T) {
	in := Batch{Source: "s", Weight: 1}
	out, err := UnmarshalBatch(in.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBatch: %v", err)
	}
	if len(out.Items) != 0 || out.Source != "s" || out.Weight != 1 {
		t.Fatalf("empty batch mangled: %+v", out)
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	b := testBatch()
	if got, want := b.WireSize(), len(b.Marshal()); got != want {
		t.Fatalf("WireSize = %d, encoded length = %d", got, want)
	}
}

func TestWireSizeMatchesEncodingProperty(t *testing.T) {
	f := func(seed uint64, srcLen uint16, n uint8) bool {
		r := xrand.New(seed)
		src := make([]byte, int(srcLen)%300) // cross the uvarint 1→2 byte boundary
		for i := range src {
			src[i] = byte('a' + r.Intn(26))
		}
		b := Batch{Source: SourceID(src), Weight: r.Float64() * 10}
		for i := 0; i < int(n); i++ {
			b.Items = append(b.Items, Item{Value: r.Normal(0, 1e6), Ts: time.Unix(0, int64(r.Uint64()>>1)).UTC()})
		}
		enc := b.Marshal()
		if len(enc) != b.WireSize() {
			return false
		}
		out, err := UnmarshalBatch(enc)
		return err == nil && out.Source == b.Source && len(out.Items) == len(b.Items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsBadVersion(t *testing.T) {
	enc := testBatch().Marshal()
	enc[0] = 99
	if _, err := UnmarshalBatch(enc); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("err = %v, want ErrCodecVersion", err)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	enc := testBatch().Marshal()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := UnmarshalBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(enc))
		}
	}
}

func TestUnmarshalEmptyInput(t *testing.T) {
	if _, err := UnmarshalBatch(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestBatchValues(t *testing.T) {
	b := testBatch()
	vals := b.Values()
	want := []float64{3.25, -17, 0}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", vals, want)
		}
	}
}

func TestBatchCloneIsDeep(t *testing.T) {
	b := testBatch()
	c := b.Clone()
	c.Items[0].Value = 999
	if b.Items[0].Value == 999 {
		t.Fatal("Clone shares item storage with original")
	}
}

func TestUnmarshalBatchIntoReusesStorage(t *testing.T) {
	in := testBatch()
	enc := in.Marshal()

	var scratch Batch
	if err := UnmarshalBatchInto(&scratch, enc); err != nil {
		t.Fatalf("UnmarshalBatchInto: %v", err)
	}
	if scratch.Source != in.Source || scratch.Weight != in.Weight || len(scratch.Items) != len(in.Items) {
		t.Fatalf("decode mismatch: %+v vs %+v", scratch, in)
	}
	firstItems := &scratch.Items[0]
	firstSource := scratch.Source

	// Second decode of the same batch: items storage and source string are
	// both reused, and the contents still round-trip.
	if err := UnmarshalBatchInto(&scratch, enc); err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if &scratch.Items[0] != firstItems {
		t.Error("items storage reallocated on same-size decode")
	}
	if scratch.Source != firstSource {
		t.Error("source re-decoded despite matching previous batch")
	}
	for i := range in.Items {
		if scratch.Items[i].Value != in.Items[i].Value || !scratch.Items[i].Ts.Equal(in.Items[i].Ts) {
			t.Fatalf("item %d mangled on reuse: %+v", i, scratch.Items[i])
		}
	}

	// A different source must replace the string and retag items.
	other := testBatch()
	other.Source = "sensor-99"
	for i := range other.Items {
		other.Items[i].Source = other.Source
	}
	if err := UnmarshalBatchInto(&scratch, other.Marshal()); err != nil {
		t.Fatalf("decode other source: %v", err)
	}
	if scratch.Source != "sensor-99" || scratch.Items[0].Source != "sensor-99" {
		t.Fatalf("source switch mishandled: %+v", scratch)
	}

	// A smaller batch shrinks the view without reallocating.
	small := Batch{Source: "sensor-99", Weight: 1, Items: other.Items[:1]}
	if err := UnmarshalBatchInto(&scratch, small.Marshal()); err != nil {
		t.Fatalf("decode small: %v", err)
	}
	if len(scratch.Items) != 1 {
		t.Fatalf("small decode has %d items, want 1", len(scratch.Items))
	}
}

func TestUnmarshalBatchIntoTruncation(t *testing.T) {
	enc := testBatch().Marshal()
	var scratch Batch
	for cut := 0; cut < len(enc); cut++ {
		if err := UnmarshalBatchInto(&scratch, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
		}
	}
}

func TestUnmarshalBatchRejectsOverflowedCount(t *testing.T) {
	// A crafted item count near 2^64 must fail the length check, not wrap
	// count*itemWireSize to a small number and panic in make.
	enc := Batch{Source: "s", Weight: 1}.Marshal()
	enc = enc[:len(enc)-1] // drop the 0 item count
	enc = binary.AppendUvarint(enc, 1<<60)
	if _, err := UnmarshalBatch(enc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestAppendMarshalExtendsBuffer(t *testing.T) {
	in := testBatch()
	prefix := []byte("prefix")
	buf := in.AppendMarshal(append([]byte(nil), prefix...))
	if string(buf[:len(prefix)]) != "prefix" {
		t.Fatal("AppendMarshal clobbered existing bytes")
	}
	out, err := UnmarshalBatch(buf[len(prefix):])
	if err != nil {
		t.Fatalf("decode appended encoding: %v", err)
	}
	if out.Source != in.Source || len(out.Items) != len(in.Items) {
		t.Fatalf("append round trip mismatch: %+v", out)
	}
}

func benchBatch(items int) Batch {
	batch := Batch{Source: "src-1", Weight: 2}
	for i := 0; i < items; i++ {
		batch.Items = append(batch.Items, Item{Source: "src-1", Value: float64(i), Ts: time.Unix(0, int64(i))})
	}
	return batch
}

func BenchmarkBatchMarshal(b *testing.B) {
	batch := benchBatch(128)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(batch.WireSize()))
		for i := 0; i < b.N; i++ {
			batch.Marshal()
		}
	})
	b.Run("append-reuse", func(b *testing.B) {
		buf := make([]byte, 0, batch.WireSize())
		b.ReportAllocs()
		b.SetBytes(int64(batch.WireSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = batch.AppendMarshal(buf[:0])
		}
	})
}

func BenchmarkBatchUnmarshal(b *testing.B) {
	batch := benchBatch(128)
	enc := batch.Marshal()
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalBatch(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("into-reuse", func(b *testing.B) {
		var scratch Batch
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := UnmarshalBatchInto(&scratch, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GroupBySource yields every index once, sub-streams in SourceID order, each
// run one sub-stream's batches in their original relative order — on a
// sorted order, a shuffled one, a subset and an empty one.
func TestGroupBySource(t *testing.T) {
	batches := []Batch{{Source: "b"}, {Source: "a"}, {Source: "c"}, {Source: "a"}, {Source: "b"}, {Source: "a"}}
	cases := []struct {
		order []int32
		want  [][]int32
	}{
		{[]int32{0, 1, 2, 3, 4, 5}, [][]int32{{1, 3, 5}, {0, 4}, {2}}},
		{[]int32{5, 4, 3, 2, 1, 0}, [][]int32{{5, 3, 1}, {4, 0}, {2}}},
		{[]int32{1, 3, 5}, [][]int32{{1, 3, 5}}},
		{[]int32{4, 2}, [][]int32{{4}, {2}}},
		{nil, nil},
	}
	for n, c := range cases {
		starts := GroupBySource(batches, c.order, []int32{99}[:0])
		if len(starts) != len(c.want)+1 || starts[0] != 0 || int(starts[len(starts)-1]) != len(c.order) {
			t.Fatalf("case %d: starts %v for %d runs of %d indices", n, starts, len(c.want), len(c.order))
		}
		for j, want := range c.want {
			run := c.order[starts[j]:starts[j+1]]
			if len(run) != len(want) {
				t.Fatalf("case %d: run %d is %v, want %v", n, j, run, want)
			}
			for k := range run {
				if run[k] != want[k] {
					t.Fatalf("case %d: run %d is %v, want %v", n, j, run, want)
				}
			}
		}
	}
}
