package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// -compare reads two files of run records (as written by -out, one JSON
// line per run) and, per workload × end-to-end metric, prints both medians,
// the delta, the bound and a verdict:
//
//	worse       the new median is worse than the old by more than the bound
//	unresolved  either side's run-to-run spread is wider than the bound, so
//	            "no change" cannot be told from a change
//	within      otherwise
//
// Every timed metric gets a second row, "(slice median)": the same runs
// read as the median over their slices instead of the fastest tenth. The
// bounded number is steady because it discards the slow slices, so a change
// that stalls the program in most but not all slices moves only this row.
//
// It exits non-zero on any worse, on either row. Two sets of runs of the SAME commit must
// come out all-within: that is the benchmark's own repeatability check.

// setupSlack is issue 11's absolute floor under setup_s's relative bound —
// max(25 %, 0.1 s): set-up takes a few tenths of a second, and a tenth more
// is scheduling, not a regression. BENCHMARK.json can only carry the
// relative part.
const setupSlack = 0.1 // seconds

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// printed here is the number the acceptance check computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// series collects one file's values per workload and metric.
func series(recs []record) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range recs {
		if r.Trace {
			continue // end-to-end numbers never come from a traced run
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		for name, v := range r.SliceMedian {
			out[r.Workload][name+medianRow] = append(out[r.Workload][name+medianRow], v)
		}
	}
	return out
}

// medianRow marks a series of slice medians, in the series map and in print.
const medianRow = " (slice median)"

func compareFiles(stdout, stderr io.Writer, oldPath, newPath string) int {
	oldRecs, err := readRecords(oldPath)
	if err == nil && len(oldRecs) == 0 {
		err = fmt.Errorf("%s: no runs", oldPath)
	}
	var newRecs []record
	if err == nil {
		newRecs, err = readRecords(newPath)
	}
	if err == nil && len(newRecs) == 0 {
		err = fmt.Errorf("%s: no runs", newPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	for _, recs := range [][]record{oldRecs, newRecs} {
		for _, r := range recs {
			if !r.Result.Correct {
				fmt.Fprintf(stdout, "note: a %s run (seed %d) failed its correctness gate: %d failed operations\n", r.Workload, r.Seed, r.Result.Failed)
			}
		}
	}
	oldS, newS := series(oldRecs), series(newRecs)
	worse := 0
	fmt.Fprintf(stdout, "%-14s %-36s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "delta", "bound", "old iqr", "new iqr", "verdict")
	workloadNames := sortedKeys(oldS)
	sort.SliceStable(workloadNames, func(i, j int) bool { return specOrder(workloadNames[i]) < specOrder(workloadNames[j]) })
	for _, wl := range workloadNames {
		if newS[wl] == nil {
			continue
		}
		for _, d := range endToEnd() {
			for _, row := range []string{d.name, d.name + medianRow} {
				a, b := oldS[wl][row], newS[wl][row]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				ma, mb := median(a), median(b)
				// delta > 0 means the new side is worse, whichever way is better.
				delta := (mb - ma) / ma
				if d.better == "higher" {
					delta = -delta
				}
				sa, sb := spread(a), spread(b)
				verdict := "within"
				switch {
				case delta > d.bound && !(d.name == "setup_s" && mb-ma <= setupSlack):
					verdict = "worse"
					worse++
				case sa > d.bound || sb > d.bound:
					verdict = "unresolved"
				}
				fmt.Fprintf(stdout, "%-14s %-36s %14.6g %14.6g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
					wl, row, ma, mb, 100*delta, 100*d.bound, 100*sa, 100*sb, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "runs per workload: old %d, new %d (by first workload)\n",
		len(oldS[workloadNames[0]]["setup_s"]), len(newS[workloadNames[0]]["setup_s"]))
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

// specOrder orders workload names as workloads() lists them.
func specOrder(name string) int {
	for i, sp := range workloads() {
		if sp.name == name {
			return i
		}
	}
	return len(workloads())
}
