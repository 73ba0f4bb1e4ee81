// Brasov pollution case study (§VI-B): "what is the total pollution value of
// particulate matter, carbon monoxide, sulfur dioxide and nitrogen dioxide
// in every time window?" — per-pollutant windowed totals with error bounds
// at all three confidence levels, on the synthetic CityBench substitute.
//
//	go run ./examples/pollution
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/approxiot/approxiot"
	"github.com/approxiot/approxiot/internal/workload"
)

func main() {
	cfg := approxiot.Config{
		Strategy: approxiot.WHS,
		Fraction: 0.20,
		Queries:  []approxiot.QueryKind{approxiot.Sum, approxiot.Mean},
		Seed:     2014, // the dataset's vintage
	}

	// 200 sensors per pollutant channel per source node; the real sensors
	// report every 5 minutes — compressed here to 1 s so a short run still
	// observes thousands of readings (see DESIGN.md §4).
	source := func(i int) approxiot.Source {
		return workload.BrasovPollution(2014+uint64(i)*97, 200, 1)
	}

	res, err := approxiot.Simulate(cfg, source, 12*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("Brasov pollution — windowed totals, 20% sampling")
	fmt.Println()
	if len(res.Windows) == 0 {
		fmt.Println("no windows produced")
		return
	}

	// Show one representative window in detail, then the run summary.
	w := res.Windows[len(res.Windows)/2]
	sum := w.Result(approxiot.Sum)
	fmt.Printf("window at %s:\n", w.At.Format("15:04:05"))
	fmt.Printf("  total pollution = %.1f\n", sum.Estimate.Value)
	for _, conf := range []approxiot.Confidence{approxiot.OneSigma, approxiot.TwoSigma, approxiot.ThreeSigma} {
		fmt.Printf("    ± %-8.2f at %s confidence\n", sum.Estimate.Bound(conf), conf)
	}

	mean := w.Result(approxiot.Mean)
	fmt.Printf("  mean reading    = %.2f ± %.3f (95%%)\n\n", mean.Estimate.Value, mean.Bound())

	fmt.Printf("run total: estimated %.1f vs exact %.1f (loss %.4f%%)\n",
		res.TotalEstimate(approxiot.Sum), res.TruthSum,
		100*res.AccuracyLoss(approxiot.Sum))
}
