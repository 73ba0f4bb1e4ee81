// NYC taxi case study (§VI-A), geospatial form: the paper's query — "what
// is the total payment for taxi fares in NYC at each time window?" — grown
// into a millions-of-events replay over the full edge tree. Rides come from
// dispatch-zone clusters at NYC-ish coordinates (heavy-tailed fares, skewed
// zone activity, diurnal demand) and are stratified by spatial grid cell
// (workload.StratifyByCell), so the strata the tree samples over are map
// cells, not logical zone names. Alongside the paper's SUM, the replay
// answers a group-by top-k ("which cells collect the most fares?") and an
// approximate fare quantile, each with per-window error bounds.
//
// The program is also a gate: it exits non-zero unless the Eq. 8 accounting
// identity holds to relative 1e-9 (Σ window estimated input + late-dropped
// input == events produced) and the COUNT estimate is census-exact in the
// same tolerance.
//
//	go run ./examples/nyctaxi             # ≥1M-event replay at 10%
//	go run ./examples/nyctaxi -sweep      # fraction-vs-error table
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/approxiot/approxiot"
	"github.com/approxiot/approxiot/internal/workload"
)

const relTol = 1e-9

var (
	fraction = flag.Float64("fraction", 0.10, "sampling fraction in (0, 1]")
	events   = flag.Int64("events", 1_000_000, "minimum events the replay must produce")
	zones    = flag.Int("zones", 12, "dispatch zones per source node")
	cellRes  = flag.Float64("cellres", 0.02, "stratification grid resolution, degrees per cell")
	baseRate = flag.Float64("rate", 1200, "busiest zone's rides per second, per source node")
	topk     = flag.Int("topk", 5, "cells to rank per window")
	quant    = flag.Float64("q", 0.9, "fare quantile to estimate")
	seed     = flag.Uint64("seed", 2015, "RNG seed (the DEBS'15 trace vintage)")
	sweep    = flag.Bool("sweep", false, "sweep sampling fractions and print an error table")
)

// replay simulates one full run at the given fraction and gates the
// accounting identity before returning.
func replay(f float64) (*approxiot.SimResult, error) {
	cfg := approxiot.Config{
		Strategy: approxiot.WHS,
		Fraction: f,
		Queries: []approxiot.QueryKind{
			approxiot.Sum, approxiot.Count,
			approxiot.TopKOf(*topk), approxiot.QuantileOf(*quant),
		},
		Seed: *seed,
	}

	// Size the virtual duration from the generators' nominal rate so the
	// replay clears the -events floor (the diurnal cycle sits ~13% above
	// nominal at the simulator's epoch; the 1.1 margin absorbs drift).
	tree := approxiot.Testbed()
	perSlot := workload.NYCTaxiGeo(*seed, *zones, *baseRate, *cellRes).TotalRate()
	dur := time.Duration(float64(*events) / (perSlot * float64(tree.Sources)) * 1.1 * float64(time.Second))
	if dur < 2*time.Second {
		dur = 2 * time.Second
	}

	source := func(i int) approxiot.Source {
		return workload.NYCTaxiGeo(*seed+uint64(i)*97, *zones, *baseRate, *cellRes)
	}
	res, err := approxiot.Simulate(cfg, source, dur)
	if err != nil {
		return nil, err
	}

	// Eq. 8 accounting identity: every produced event is either estimated
	// input of some window or accounted late-dropped input.
	var estInput float64
	for _, w := range res.Windows {
		estInput += w.EstimatedInput
	}
	produced := float64(res.Produced)
	if rel := relErr(estInput+res.LateDroppedInput, produced); rel > relTol {
		return nil, fmt.Errorf("accounting identity violated at fraction %.2f: Σ estimated input %.3f + late %.3f != produced %.0f (rel %.3g)",
			f, estInput, res.LateDroppedInput, produced, rel)
	}
	// COUNT is census-exact under Eq. 8 regardless of the fraction.
	if loss := res.AccuracyLoss(approxiot.Count); loss > relTol {
		return nil, fmt.Errorf("COUNT not census-exact at fraction %.2f: loss %.3g", f, loss)
	}
	return res, nil
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// meanQuantile averages the per-window quantile value and CI half-width.
func meanQuantile(res *approxiot.SimResult) (value, halfWidth float64) {
	var n float64
	for _, w := range res.Windows {
		r := w.Result(approxiot.QuantileOf(*quant))
		if r.Quantile == nil || r.Quantile.SampleSize == 0 {
			continue
		}
		value += r.Quantile.Value
		halfWidth += (r.Quantile.Hi - r.Quantile.Lo) / 2
		n++
	}
	if n > 0 {
		value /= n
		halfWidth /= n
	}
	return value, halfWidth
}

// uplinkShare is the fraction of the raw stream's bytes the two edge
// uplink layers actually carried.
func uplinkShare(res *approxiot.SimResult) float64 {
	return float64(res.LayerBytes[1]+res.LayerBytes[2]) / float64(2*res.LayerBytes[0])
}

// busiest returns the window with the most estimated input — the one worth
// showing ranked cells for.
func busiest(res *approxiot.SimResult) approxiot.WindowResult {
	best := res.Windows[0]
	for _, w := range res.Windows {
		if w.EstimatedInput > best.EstimatedInput {
			best = w
		}
	}
	return best
}

func runOnce() error {
	fmt.Printf("NYC taxi geo replay — %d zones/node stratified into %.2f° grid cells, %.0f%% sampling\n\n",
		*zones, *cellRes, 100**fraction)

	res, err := replay(*fraction)
	if err != nil {
		return err
	}
	if res.Produced < *events {
		return fmt.Errorf("replay produced %d events, below the -events floor %d", res.Produced, *events)
	}

	fmt.Printf("replayed %d events across %d windows (%v of virtual time)\n\n",
		res.Produced, len(res.Windows), res.Elapsed.Round(time.Second))

	w := busiest(res)
	tk := w.Result(approxiot.TopKOf(*topk))
	fmt.Printf("top-%d cells by estimated fares, busiest window (≈%.0f rides):\n", *topk, w.EstimatedInput)
	for i, g := range tk.Groups {
		fmt.Printf("  %d. %-14s  $%11.2f ± $%.2f   rides ≈ %.0f\n",
			i+1, g.Source, g.Sum.Value, g.Sum.Bound(tk.Confidence), g.Count)
	}

	if qr := w.Result(approxiot.QuantileOf(*quant)).Quantile; qr != nil {
		fmt.Printf("\np%.0f fare, same window: $%.2f  95%% CI [$%.2f, $%.2f]  (ζ = %d sampled)\n",
			100**quant, qr.Value, qr.Lo, qr.Hi, qr.SampleSize)
	}
	qv, qh := meanQuantile(res)
	fmt.Printf("p%.0f fare, run mean:    $%.2f ± $%.2f\n", 100**quant, qv, qh)

	fmt.Printf("\nrun totals: fares estimated $%.2f vs exact $%.2f (loss %.4f%%)\n",
		res.TotalEstimate(approxiot.Sum), res.TruthSum, 100*res.AccuracyLoss(approxiot.Sum))
	fmt.Printf("accounting: COUNT census-exact, identity holds to rel %.0e (gated)\n", relTol)
	fmt.Printf("bandwidth:  edge uplinks carried %.1f%% of the raw stream\n", 100*uplinkShare(res))
	fmt.Printf("latency:    mean %v, p95 %v\n",
		res.Latency.Mean().Round(time.Millisecond),
		res.Latency.Quantile(0.95).Round(time.Millisecond))
	return nil
}

func runSweep() error {
	fractions := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.00}

	fmt.Printf("NYC taxi geo sweep — fraction vs error, ~%d events per run\n\n", *events)

	// Census first: its quantile is the exact weighted quantile of the
	// full stream and anchors the per-fraction quantile error column.
	census, err := replay(1)
	if err != nil {
		return err
	}
	censusQ, _ := meanQuantile(census)

	fmt.Printf("%-9s  %-12s  %-14s  %-12s  %s\n",
		"fraction", "SUM loss", fmt.Sprintf("p%.0f err", 100**quant), "p-CI half", "uplink bytes")
	for _, f := range fractions {
		res := census
		if f != 1 {
			if res, err = replay(f); err != nil {
				return err
			}
		}
		qv, qh := meanQuantile(res)
		fmt.Printf("%-9.2f  %-12s  %-14s  $%-11.2f  %.1f%% of raw\n",
			f,
			fmt.Sprintf("%.4f%%", 100*res.AccuracyLoss(approxiot.Sum)),
			fmt.Sprintf("%.3f%%", 100*relErr(qv, censusQ)),
			qh, 100*uplinkShare(res))
	}
	fmt.Println("\nevery run above passed the Eq. 8 identity and COUNT-exactness gates")
	return nil
}

func main() {
	flag.Parse()
	var err error
	if *sweep {
		err = runSweep()
	} else {
		err = runOnce()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nyctaxi:", err)
		os.Exit(1)
	}
}
