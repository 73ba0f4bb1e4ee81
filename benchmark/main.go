// Command benchmark is the repository's benchmark: one invocation runs one
// workload from a seed, prints every metric by name with its unit, checks
// the outputs against an exact reference, and exits non-zero on a wrong
// answer. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: census-mem, sampled-mem, census-tcp, paced-queries")
	seed := fs.Int64("seed", 1, "input seed: the only source of randomness")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds to measure")
	traced := fs.Int("trace", 0, "1: traced replay printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
	out := fs.String("out", "", "append this run as one JSON line to the file (input of -compare)")
	spans := fs.String("spans", ".bench_build/spans.jsonl", "where a traced run writes its spans")
	small := fs.Bool("small", false, "run the workload's self-test variant (~1/200 of the items; numbers are meaningless)")
	unpaced := fs.Bool("unpaced", false, "paced-queries only: replay the schedule flat out and print the capacity at each step (a calibration: no result line)")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare old.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.jsonl new.jsonl")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	sp, err := findSpec(*workload)
	if err != nil || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		fs.Usage()
		return 2
	}
	if *small {
		sp = sp.small()
	}

	env := readEnv()
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %d\n", sp.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "machine  nproc %d  GOMAXPROCS %d  pushers %d  %s  %s\n",
		env.NumCPU, env.GOMAXPROCS, env.Pushers, env.CPUModel, env.GoVersion)

	if *unpaced {
		if !sp.paced {
			fmt.Fprintln(stderr, "benchmark: -unpaced applies to the open-loop workload only")
			return 2
		}
		if err := runUnpaced(stdout, sp, *seed, *seconds); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	rec := record{Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: *traced != 0, Env: env}
	var defs []metricDef
	var vals map[string]float64
	var v verdict
	if *traced != 0 {
		defs = perLayer()
		vals, v, err = runTraced(stdout, sp, *seed, *seconds, *spans, &rec)
	} else {
		defs = endToEnd()
		var run *liveRun
		if run, err = runLive(sp, *seed, *seconds, nil); err == nil {
			v = check(run, run.pushed)
			vals = endToEndValues(run)
			rec.SliceMedian = sliceMedians(run)
			describe(stdout, run, &rec)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	metrics, err := named(defs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printTable(stdout, defs, metrics, rec.SliceMedian)
	fmt.Fprintf(stdout, "gate: attempted %d, failed %d; SUM rel error %.4f%%, exact SUM in bound %.1f%%, exact p90 in bound %.1f%%, top-8 recall %.1f%%\n",
		v.attempted, v.failed, v.sumRelErrPct, 100*v.sumCoverage, 100*v.p90Coverage, 100*v.topKRecall)
	if len(v.known) > 0 {
		fmt.Fprintf(stdout, "known misses (not failed):\n%s\n", joinProblems(v.known))
	}
	if v.failed > 0 {
		fmt.Fprintf(stdout, "WRONG ANSWER:\n%s\n", joinProblems(v.problems))
	}
	rec.Result = result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}
	rec.Problems, rec.Known = v.problems, v.known
	rec.Gate = map[string]float64{
		"sum_rel_error_pct": v.sumRelErrPct, "sum_coverage": v.sumCoverage,
		"p90_coverage": v.p90Coverage, "topk_recall": v.topKRecall,
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if v.failed > 0 {
		return 1
	}
	return 0
}

// runLive runs one workload live, traced when rec is non-nil.
func runLive(sp spec, seed int64, seconds float64, rec *recorder) (*liveRun, error) {
	if sp.paced {
		return runPaced(sp, seed, seconds, rec)
	}
	return runClosed(sp, seed, seconds, rec)
}

// describe prints a live run's segments and fills the record's run facts.
func describe(w io.Writer, run *liveRun, rec *record) {
	rec.Items, rec.Windows, rec.Digest = run.items, len(run.expected), fmt.Sprintf("%016x", run.digest)
	fmt.Fprintf(w, "input    digest %s  items pushed %d (measured %d)  windows expected %d\n",
		rec.Digest, run.pushed, run.items, rec.Windows)
	fmt.Fprintf(w, "set-up   %d times, median %.3f s (setup_s)", len(run.setup), median(run.setup))
	if !run.sp.paced {
		fmt.Fprintf(w, "; then an untimed soak of %.3f s on the deployment that is measured", run.soak)
	}
	fmt.Fprintln(w)
	printSegments(w, run)
	rec.Detail = map[string]float64{"soak_s": run.soak}
	for i := range run.segs {
		s := &run.segs[i]
		for name, v := range map[string]float64{
			"items_per_s":           s.perSecond(),
			"cpu_ns_per_item":       median(s.cpuNs),
			"result_latency_p50_ms": s.p50(),
			"result_latency_p90_ms": s.p90(),
		} {
			if !math.IsInf(v, 0) { // JSON has no infinity; a missing window shows in the gate
				rec.Detail["segment."+s.name+"."+name] = v
			}
		}
	}
}
