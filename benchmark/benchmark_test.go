package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The self-test: tier-1 runs it, so the benchmark cannot rot unnoticed.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors BENCHMARK.json's exact key set.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []boundedDoc  `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedDoc struct {
	metricDoc
	Bound *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the program: every
// workload and metric the program prints appears there under exactly the
// same name, with the same unit, direction and bound, and nothing else does.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	for _, arg := range bj.Command {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchmark/") {
			t.Errorf("command names %q, outside paths", arg)
		}
	}

	specs := workloads()
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
	}

	e2e := endToEnd()
	if len(bj.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(e2e))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		d := e2e[i]
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %q has no bound", m.Name)
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || *m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v (bound %v), program %+v", i, m.metricDoc, *m.Bound, d)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := perLayer()
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(layers))
	}
	for i, m := range bj.PerLayer {
		d := layers[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestGeneratorIsSeeded pins the generator to its seed: the same seed
// yields byte-identical input blocks, two different seeds do not.
func TestGeneratorIsSeeded(t *testing.T) {
	for _, sp := range workloads() {
		sp = sp.small()
		digest := func(seed int64) uint64 {
			if sp.paced {
				return genPaced(sp, seed, 1).digest()
			}
			return genClosed(sp, seed).digest()
		}
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("%s: seed 7 generated two different inputs (%x, %x)", sp.name, a, b)
		}
		if a, b := digest(7), digest(8); a == b {
			t.Errorf("%s: seeds 7 and 8 generated the same input", sp.name)
		}
	}
}

// runSmall runs one workload's self-test variant through the real command
// line and returns the parsed last line and the full output.
func runSmall(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"-small"}, args...), &stdout, &stderr)
	out := stdout.String()
	if code != 0 {
		t.Fatalf("benchmark %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res, out
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing from the output", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s printed in %q, defined in %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsSmall runs every workload and its traced form at about
// 1/200 scale: every metric is printed under its BENCHMARK.json name, the
// correctness gate passes, and the span file parses with every non-root
// span's parent alive.
func TestWorkloadsSmall(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range workloads() {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			outFile := filepath.Join(dir, sp.name+".jsonl")
			res, _ := runSmall(t, "-workload", sp.name, "-seed", "3", "-seconds", "0.5", "-trace", "0", "-out", outFile)
			checkResult(t, res, endToEnd())
			for _, d := range endToEnd() {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}

			spans := filepath.Join(dir, sp.name+".spans.jsonl")
			res, out := runSmall(t, "-workload", sp.name, "-seed", "3", "-seconds", "1", "-trace", "1", "-spans", spans)
			checkResult(t, res, perLayer())
			if !strings.Contains(out, "layers.sum") || !strings.Contains(out, "cpu_ns_per_item") {
				t.Error("traced output does not print the layer sum beside cpu_ns_per_item")
			}
			checkSpans(t, spans)

			if sp.paced {
				// The capacity calibration: every window emitted, one rate per step.
				var stdout, stderr bytes.Buffer
				if code := realMain([]string{"-small", "-workload", sp.name, "-seed", "3", "-seconds", "1", "-unpaced"}, &stdout, &stderr); code != 0 {
					t.Errorf("-unpaced exited %d\n%s%s", code, stdout.String(), stderr.String())
				}
				if n := strings.Count(stdout.String(), "capacity"); n != len(sp.rates)+2 {
					t.Errorf("-unpaced printed %d capacity lines, want one per step, the warm-up and the drain:\n%s", n, stdout.String())
				}
			}

			// A set compared with itself is all-within.
			var cmp bytes.Buffer
			if code := compareFiles(&cmp, &cmp, outFile, outFile); code != 0 {
				t.Errorf("-compare of a file with itself exited %d:\n%s", code, cmp.String())
			}
		})
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int32]bool{}
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file: %v", err)
		}
		spans = append(spans, s)
		ids[s.ID] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("span file is empty")
	}
	runs := map[string]bool{}
	for _, s := range spans {
		runs[s.Run] = true
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d (%s) names parent %d, which was never recorded", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, run := range []string{"live", "chain", "probe"} {
		if !runs[run] {
			t.Errorf("no spans from the %s run", run)
		}
	}
}

// TestCompareVerdicts feeds -compare two hand-made sets and checks the
// three verdicts and the exit code.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	// cpuMedianRatio is each run's slice-median cpu_ns_per_item over its
	// fastest tenth.
	write := func(name string, cpu, rate []float64, cpuMedianRatio float64) string {
		path := filepath.Join(dir, name)
		for i := range cpu {
			rec := record{Workload: "census-mem", Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"cpu_ns_per_item": {Value: cpu[i], Unit: "ns"},
				"items_per_s":     {Value: rate[i], Unit: "items/s"},
				"setup_s":         {Value: 1 + float64(i)*0.9, Unit: "s"},
			}}, SliceMedian: map[string]float64{"cpu_ns_per_item": cpu[i] * cpuMedianRatio}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	old := write("old.jsonl", []float64{100, 101, 99, 100, 102}, []float64{10, 10, 10, 10, 10}, 1.05)
	same := write("same.jsonl", []float64{101, 100, 100, 99, 101}, []float64{10, 10, 10, 10, 10}, 1.05)
	slow := write("slow.jsonl", []float64{150, 151, 149, 150, 152}, []float64{10.5, 10.5, 10.5, 10.5, 10.5}, 1.05)
	stalls := write("stalls.jsonl", []float64{101, 100, 100, 99, 101}, []float64{10, 10, 10, 10, 10}, 1.6)

	var out bytes.Buffer
	if code := compareFiles(&out, &out, old, same); code != 0 {
		t.Errorf("same-commit sets: exit %d\n%s", code, out.String())
	}
	for _, want := range []string{"cpu_ns_per_item", "within", "unresolved"} { // setup_s spread is wider than its bound
		if !strings.Contains(out.String(), want) {
			t.Errorf("same-commit comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(&out, &out, old, slow); code == 0 {
		t.Errorf("50%% more CPU per item: exit 0\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("regression not marked worse:\n%s", out.String())
	}
	// Higher is better for items_per_s: +5 % is not a regression.
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "items_per_s") && !strings.Contains(line, "within") {
			t.Errorf("a faster items_per_s was not within: %s", line)
		}
	}

	// A stall that leaves the fastest slices clean moves only the slice
	// median's row, and that row alone fails the comparison.
	out.Reset()
	if code := compareFiles(&out, &out, old, stalls); code == 0 {
		t.Errorf("slice median 50%% worse, fastest tenth unchanged: exit 0\n%s", out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "cpu_ns_per_item") && strings.Contains(line, medianRow) != strings.Contains(line, "worse") {
			t.Errorf("only the slice-median row should be worse: %s", line)
		}
	}
}
