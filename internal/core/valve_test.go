package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/metrics"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/xrand"
)

// The valve's single pass must publish what the four separate passes it
// replaced published: the same runs, each stamped, each carrying its
// sub-stream's running-maximum watermark, and a truth total that is the
// item-by-item running sum, bit for bit — with caller timestamps (kept, zero
// ones defaulted) and stamped at ingest (everything re-stamped), batched and
// record-at-a-time.
func TestValvePublishOnePassEqualsFour(t *testing.T) {
	for _, mode := range []struct {
		name                 string
		eventTime, perRecord bool
	}{{"event-time", true, false}, {"ingest-stamped", false, false}, {"record-at-a-time", true, true}} {
		t.Run(mode.name, func(t *testing.T) {
			bus := transport.NewMem()
			defer bus.Close()
			if err := bus.CreateTopic("leaf", 1, 0); err != nil {
				t.Fatal(err)
			}
			cons, err := bus.NewConsumer("leaf")
			if err != nil {
				t.Fatal(err)
			}
			bw := metrics.NewBandwidthAccount()
			v := &valve{slot: 3, topic: "leaf", producer: bus.NewProducer(), bwc: bw.Counter("leaf"),
				from: sourceFrom(3), perRecord: mode.perRecord, stampTs: !mode.eventTime,
				marks: make(map[stream.SourceID]time.Time)}
			gen := xrand.New(11)
			var truth paddedFloat
			wantTruth := 0.0
			wantMarks := map[stream.SourceID]time.Time{}
			var wantBytes int64
			for push := 0; push < 20; push++ {
				items := make([]stream.Item, 1+gen.Intn(60))
				src := stream.SourceID("")
				for j := range items {
					if gen.Intn(5) == 0 {
						src = stream.SourceID(fmt.Sprintf("s%d", gen.Intn(3)))
						if gen.Intn(4) == 0 {
							src = "" // defaults to the slot's stratum
						}
					}
					items[j] = stream.Item{Source: src, Value: gen.Normal(0, 1e6)}
					if gen.Intn(10) != 0 {
						items[j].Ts = simEpoch.Add(time.Duration(gen.Int63n(int64(time.Minute))))
					}
				}
				before := time.Now()
				if err := v.publish(time.Now(), items, &truth); err != nil {
					t.Fatal(err)
				}
				after := time.Now()

				// The reference: the separate passes, over the stamped items.
				pub := items[0].Pub
				if pub < before.UnixNano() || pub > after.UnixNano() {
					t.Fatalf("Pub %d outside the push [%d, %d]", pub, before.UnixNano(), after.UnixNano())
				}
				var runs []stream.Batch
				var wms []mq.Watermark
				for lo := 0; lo < len(items); {
					hi := lo + 1
					for hi < len(items) && items[hi].Source == items[lo].Source {
						hi++
					}
					run := stream.Batch{Source: items[lo].Source, Weight: 1, Items: items[lo:hi]}
					mark := wantMarks[run.Source]
					for _, it := range run.Items {
						if it.Ts.After(mark) {
							mark = it.Ts
						}
					}
					wantMarks[run.Source] = mark
					runs, wms = append(runs, run), append(wms, mq.Watermark{From: "src3", At: mark})
					wantBytes += int64(run.WireSize())
					lo = hi
				}
				for _, it := range items {
					wantTruth += it.Value
					if it.Source == "" || it.Pub != pub || it.Ts.IsZero() {
						t.Fatalf("item left unstamped: %+v", it)
					}
					if !mode.eventTime && it.Ts.UnixNano() != pub {
						t.Fatalf("ingest stamping must re-stamp Ts: %v vs pub %d", it.Ts, pub)
					}
				}
				recs, err := cons.TryPollInto(nil, 1024)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != len(runs) {
					t.Fatalf("push %d published %d records, want %d runs", push, len(recs), len(runs))
				}
				for i, rec := range recs {
					if string(rec.Key) != string(runs[i].Source) || !reflect.DeepEqual(rec.Value, runs[i].Marshal()) {
						t.Fatalf("push %d record %d is not run %d (%s) encoded", push, i, i, runs[i].Source)
					}
					if rec.Watermark.From != wms[i].From || !rec.Watermark.At.Equal(wms[i].At) {
						t.Fatalf("push %d record %d watermark %+v, want %+v", push, i, rec.Watermark, wms[i])
					}
				}
			}
			if math.Float64bits(truth.v) != math.Float64bits(wantTruth) {
				t.Fatalf("truth %v, want the item-by-item sum %v", truth.v, wantTruth)
			}
			if got := bw.Link("leaf"); got != wantBytes {
				t.Fatalf("accounted %d payload bytes, want %d", got, wantBytes)
			}
			if len(v.marks) != len(wantMarks) {
				t.Fatalf("valve tracks %d sub-streams, want %d", len(v.marks), len(wantMarks))
			}
		})
	}
}

// A push whose items carry no Source allocates no more than one whose items
// do: the slot's default stratum is named once per valve, not per push.
func TestValveDefaultSourceAddsNoAllocation(t *testing.T) {
	bus := transport.NewMem()
	defer bus.Close()
	if err := bus.CreateTopic("leaf", 1, 0); err != nil {
		t.Fatal(err)
	}
	v := &valve{slot: 3, topic: "leaf", producer: bus.NewProducer(), bwc: metrics.NewBandwidthAccount().Counter("leaf"),
		from: sourceFrom(3), marks: make(map[stream.SourceID]time.Time), enc: encoderFor(bus)}
	var truth paddedFloat
	items := make([]stream.Item, 16)
	push := func(src stream.SourceID) func() {
		return func() {
			for i := range items {
				items[i] = stream.Item{Source: src, Value: float64(i), Ts: simEpoch}
			}
			if err := v.publish(time.Now(), items, &truth); err != nil {
				t.Fatal(err)
			}
		}
	}
	named := testing.AllocsPerRun(200, push(slotSource(3)))
	unnamed := testing.AllocsPerRun(200, push(""))
	if unnamed != named {
		t.Fatalf("a push without Sources allocates %v times, one with them %v", unnamed, named)
	}
}
