package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// metricValue is one metric as printed: the number as measured, with all
// its digits, and its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to an -out file: the contract result plus
// what is needed to reproduce and compare it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      envInfo `json:"env"`
	Items    int64   `json:"items"`
	Windows  int     `json:"windows"`
	Digest   string  `json:"input_digest"`
	Result   result  `json:"result"`
	// SliceMedian holds the timed end-to-end metrics as slice medians
	// (untraced runs), for -compare's second row per metric.
	SliceMedian map[string]float64 `json:"slice_median,omitempty"`
	Detail      map[string]float64 `json:"detail,omitempty"`
	Gate        map[string]float64 `json:"gate"`
	Problems    []string           `json:"problems,omitempty"`
	Known       []string           `json:"known_misses,omitempty"`
}

// fastest is the share of a run's slices every timed end-to-end metric is
// read from. On the shared box a neighbour's burst only ever slows a slice,
// and one can last a whole run's worth of seconds, so the fastest tenth —
// the second best of twenty slices — estimates what the code does
// undisturbed and is the only statistic tried whose spread across seeds
// stayed inside the bounds in a busy hour (README, "Why the fastest tenth").
// Its blind spot is the code's own stall that leaves a tenth of the slices
// clean; sliceMedians is reported and compared beside it to show those.
const fastest = 0.1

// fastestTenth picks the fastest-decile sample by the nearest-rank rule.
func fastestTenth(samples []float64, higherIsBetter bool) float64 {
	s := sortedCopy(samples)
	if higherIsBetter {
		slices.Reverse(s)
	}
	return quantile(s, fastest)
}

func sliceMedian(samples []float64, _ bool) float64 { return median(samples) }

// timedValues folds a run's slices into the four timed metrics with one
// statistic over the slices.
func timedValues(run *liveRun, stat func(samples []float64, higherIsBetter bool) float64) map[string]float64 {
	if run.sp.paced {
		// Open loop: the achieved rate over the three steps; CPU as each
		// step's quarter-second slices, weighted by the step's items;
		// latency over the top step's windows, where the system is busiest.
		var wall, cpu float64
		for i := range run.segs {
			s := &run.segs[i]
			wall += s.wall.Seconds()
			cpu += stat(s.cpuNs, false) * float64(s.items)
		}
		top := &run.segs[len(run.segs)-1]
		return map[string]float64{
			"items_per_s":           float64(run.items) / wall,
			"cpu_ns_per_item":       cpu / float64(run.items),
			"result_latency_p50_ms": top.p50(),
			"result_latency_p90_ms": top.p90(),
		}
	}
	var rate, cpu, p50, p90 []float64
	for i := range run.segs {
		s := &run.segs[i]
		rate = append(rate, s.perSecond())
		cpu = append(cpu, s.cpuNs...)
		if len(s.latency) > 0 {
			p50 = append(p50, s.p50())
			p90 = append(p90, s.p90())
		}
	}
	return map[string]float64{
		"items_per_s":           stat(rate, true),
		"cpu_ns_per_item":       stat(cpu, false),
		"result_latency_p50_ms": stat(p50, false),
		"result_latency_p90_ms": stat(p90, false),
	}
}

// sliceMedians is the timed metrics as the median over the slices: what
// the run cost with the box's bursts and the code's own periodic work left
// in. Printed and recorded beside the bounded values, and compared by
// -compare, never bounded in BENCHMARK.json.
func sliceMedians(run *liveRun) map[string]float64 { return timedValues(run, sliceMedian) }

// endToEndValues folds a run into the end-to-end metrics: the timed ones
// from the fastest tenth of the slices, counts over the whole measured phase.
func endToEndValues(run *liveRun) map[string]float64 {
	items := float64(run.items)
	vals := timedValues(run, fastestTenth)
	vals["setup_s"] = median(run.setup)
	vals["allocs_per_item"] = float64(run.mallocs) / items
	vals["alloc_bytes_per_item"] = float64(run.allocBytes) / items
	// Links are accounted from open to close, so divide by every item the
	// deployment carried, warm-up included.
	vals["wire_bytes_per_item"] = float64(run.out.wireBytes) / float64(run.pushed)
	return vals
}

// named attaches units to values, in the definitions' order, and fails if
// a defined metric has no value or is not finite.
func named(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		if math.IsInf(v, 0) {
			v = math.MaxFloat64 // a result that never arrived: worse than any bound
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printTable writes the human-readable form: every metric by name with its
// unit, primary cost number first.
func printTable(w io.Writer, defs []metricDef, m map[string]metricValue, medians map[string]float64) {
	for _, d := range defs {
		note := ""
		if med, ok := medians[d.name]; ok {
			note = fmt.Sprintf("   slice median %.6g", med)
		}
		if d.name == "cpu_ns_per_item" {
			note += "   <- primary cost number (wall-clock is noisy on shared cores)"
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-8s%s\n", d.name, m[d.name].Value, d.unit, note)
	}
}

func printSegments(w io.Writer, run *liveRun) {
	fmt.Fprintf(w, "slices (every timed metric is the fastest tenth of these; their median is printed beside it):\n")
	for i := range run.segs {
		s := &run.segs[i]
		fmt.Fprintf(w, "  %-5s items %9d  %10.0f items/s  cpu %8.1f ns/item  latency p50 %7.2f p90 %7.2f ms over %3d windows",
			s.name, s.items, s.perSecond(), median(s.cpuNs), s.p50(), s.p90(), len(s.latency))
		if run.sp.paced {
			fmt.Fprintf(w, "  offered %d/s lag %d→%d gen-late p99 %.2f ms sustained=%v",
				s.rate, s.lagStart, s.lagEnd, quantile(sortedCopy(s.genLate), 0.99), sustained(run.sp, s))
		}
		fmt.Fprintln(w)
	}
}

// appendRecord appends one JSON line to path.
func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinProblems(p []string) string { return "  - " + strings.Join(p, "\n  - ") }
