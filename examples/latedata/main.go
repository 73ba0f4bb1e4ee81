// Late data under event-time windows: a deployment ingests readings whose
// arrival order is scrambled — a fraction of each sensor's records is held
// back and delivered only after the rest of the stream, the shape of a
// flaky uplink or a store-and-forward edge hop. Ingest-stamped windows
// (EventTime off) would silently book those records into whatever window
// was current when they arrived; caller-stamped event-time windows assign every record to the
// window its timestamp names, hold windows open for AllowedLateness past
// their end, and count anything beyond that horizon into
// LiveResult.LateDropped instead of corrupting a closed window.
//
// Sweep the two knobs and watch the trade:
//
//	go run ./examples/latedata                          # defaults: 10% held back, 1 s lateness
//	go run ./examples/latedata -reorder 0.3 -lateness 0 # drop everything displaced
//	go run ./examples/latedata -reorder 0.3 -lateness 8s # horizon covers the run: nothing dropped
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/approxiot/approxiot"
)

func main() {
	reorder := flag.Float64("reorder", 0.1, "fraction of each sensor's records held back to the end of the stream")
	lateness := flag.Duration("lateness", time.Second, "AllowedLateness: how far past a window's end stragglers are still admitted")
	perSlot := flag.Int("items", 400, "records per source slot")
	span := flag.Duration("span", 8*time.Second, "event-time span the records cover")
	seed := flag.Int64("seed", 42, "reorder shuffle seed")
	flag.Parse()

	tree := approxiot.Testbed() // 8 sources, 1 s event windows
	d, err := approxiot.Open(context.Background(), approxiot.Config{
		Tree:            tree,
		Fraction:        1, // census: the exact-count bookkeeping is the story here
		Queries:         []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
		Window:          20 * time.Millisecond, // idle-timeout and drain cadence, not the window size
		EventTime:       true,
		AllowedLateness: *lateness,
		Seed:            7,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}

	// Per slot: evenly spaced event timestamps over the span, then displace
	// a random subset to the back of the push order. Displaced records
	// arrive after the sensor's watermark has already passed them — they
	// are genuinely late, and AllowedLateness decides their fate.
	rng := rand.New(rand.NewSource(*seed))
	epoch := time.Now().Truncate(tree.Window)
	total, displaced := 0, 0
	for slot := 0; slot < tree.Sources; slot++ {
		ing, err := d.Ingester(slot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingester:", err)
			os.Exit(1)
		}
		var onTime, held []approxiot.Item
		step := *span / time.Duration(*perSlot)
		for k := 0; k < *perSlot; k++ {
			it := approxiot.Item{
				Source: approxiot.SourceID(fmt.Sprintf("sensor-%d", slot)),
				Value:  10 + rng.NormFloat64(),
				Ts:     epoch.Add(time.Duration(k) * step),
			}
			if rng.Float64() < *reorder {
				held = append(held, it)
			} else {
				onTime = append(onTime, it)
			}
		}
		if err := ing.Push(onTime...); err != nil {
			fmt.Fprintln(os.Stderr, "push:", err)
			os.Exit(1)
		}
		if err := ing.Push(held...); err != nil {
			fmt.Fprintln(os.Stderr, "push stragglers:", err)
			os.Exit(1)
		}
		total += *perSlot
		displaced += len(held)
	}

	res, err := d.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}

	fmt.Printf("pushed %d records (%d displaced to the back, %.0f%%), lateness horizon %v\n\n",
		total, displaced, 100*float64(displaced)/float64(total), *lateness)
	fmt.Println("window               count        SUM ± bound")
	var counted float64
	for _, w := range res.Windows {
		sum := w.Result(approxiot.Sum)
		cnt := w.Result(approxiot.Count).Estimate.Value
		counted += cnt
		fmt.Printf("[%6s, %6s)  %8.0f  %12.1f ± %.1f\n",
			w.Start.Sub(epoch), w.End.Sub(epoch), cnt, sum.Estimate.Value, sum.Bound())
	}
	fmt.Printf("\nwindows account for %.0f records; LateDropped = %d; total = %.0f (= pushed %d)\n",
		counted, res.LateDropped, counted+float64(res.LateDropped), total)
	if counted+float64(res.LateDropped) != float64(total) {
		fmt.Fprintln(os.Stderr, "accounting violated: windows + late != pushed")
		os.Exit(1)
	}
}
