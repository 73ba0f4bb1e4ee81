package approxiot_test

import (
	"context"
	"fmt"
	"time"

	"github.com/approxiot/approxiot"
	"github.com/approxiot/approxiot/internal/workload"
)

// The estimated COUNT is exact whatever the sampler drops — that is the
// paper's Eq. 8 invariant, which makes this output deterministic even
// though only 10% of the items survive.
func ExampleEstimator() {
	est := approxiot.NewEstimator(0.10,
		approxiot.WithSeed(42),
		approxiot.WithQueries(approxiot.Sum, approxiot.Count),
	)
	for i := 0; i < 5000; i++ {
		est.Add("sensor-a", 2.0)
		est.Add("sensor-b", 10.0)
	}
	win := est.Close()
	fmt.Printf("sampled %d of %.0f items\n", win.SampleSize, win.EstimatedInput)
	fmt.Printf("count = %.0f (exact)\n", win.Result(approxiot.Count).Estimate.Value)
	fmt.Printf("sum   = %.0f (exact here: constant-valued strata)\n",
		win.Result(approxiot.Sum).Estimate.Value)
	// Output:
	// sampled 1000 of 10000 items
	// count = 10000 (exact)
	// sum   = 60000 (exact here: constant-valued strata)
}

// TopK ranks sub-streams by estimated total; with constant values per
// stratum the weighted estimate is exact, so the ranking is deterministic.
func ExampleTopK() {
	est := approxiot.NewEstimator(0.2, approxiot.WithSeed(7), approxiot.WithQueries(approxiot.Sum))
	for i := 0; i < 1000; i++ {
		est.Add("alpha", 1) // total 1000
		est.Add("beta", 5)  // total 5000
		est.Add("gamma", 2) // total 2000
	}
	_, theta := est.CloseTheta()
	for rank, g := range approxiot.TopK(theta, 2) {
		fmt.Printf("#%d %s = %.0f\n", rank+1, g.Source, g.Sum.Value)
	}
	// Output:
	// #1 beta = 5000
	// #2 gamma = 2000
}

// Simulate runs the paper's whole 8/4/2/1 testbed on virtual time. The
// estimated input count equals the generated count exactly, end to end.
func ExampleSimulate() {
	source := func(i int) approxiot.Source {
		return workload.GaussianMicro(uint64(i)+1, 100)
	}
	res, err := approxiot.Simulate(approxiot.Config{
		Fraction: 0.25,
		Queries:  []approxiot.QueryKind{approxiot.Count},
		Seed:     11,
	}, source, 3*time.Second)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("generated %d, estimated %.0f\n",
		res.Produced, res.TotalEstimate(approxiot.Count))
	// Output: generated 9600, estimated 9600
}

// Open is the session-shaped live entry point: a long-lived Deployment
// handle with push ingestion, streaming window results, and graceful
// shutdown. The Eq. 8 invariant survives sampling, sharding, and the
// drain, so the final estimated count equals what was pushed, exactly.
func ExampleOpen() {
	d, err := approxiot.Open(context.Background(), approxiot.Config{
		Fraction: 0.25,
		Queries:  []approxiot.QueryKind{approxiot.Sum, approxiot.Count},
		Seed:     42,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	items := make([]approxiot.Item, 1000)
	for i := range items {
		items[i].Value = float64(i)
	}
	for _, sensor := range []approxiot.SourceID{"temp-hall", "co2-lab"} {
		if err := d.Ingest(sensor, items...); err != nil {
			fmt.Println(err)
			return
		}
	}
	res, err := d.Close() // drains in-flight windows, returns the merged result
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("pushed %d, estimated count %.0f\n", res.Produced, res.EstimateCount)
	// Output: pushed 2000, estimated count 2000
}
