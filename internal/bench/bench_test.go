package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testScale keeps the full shape-check suite fast; the assertions below
// test the paper's qualitative claims, not its absolute numbers.
func testScale() Scale {
	return Scale{
		Reps:             2,
		SimDuration:      4 * time.Second,
		RatePerSubstream: 500,
		LiveItems:        10000,
		RootWork:         40 * time.Microsecond,
		Seed:             2018,
	}
}

// checkGolden compares a seeded simulated figure's formatted table with
// testdata/<id>.golden, so a refactor that moves any figure value fails even
// where the shape claims still hold. A missing golden is written from this
// run and the test fails, so the new file gets reviewed and committed.
func checkGolden(t *testing.T, fig Figure) {
	t.Helper()
	path := filepath.Join("testdata", fig.ID+".golden")
	got := fig.Format()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden %s; commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Figure %s differs from %s:\n--- got\n%s--- want\n%s", fig.ID, path, got, want)
	}
}

func seriesMean(s *Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}

func TestFig5aShape(t *testing.T) {
	fig, err := Fig5a(testScale())
	if err != nil {
		t.Fatalf("Fig5a: %v", err)
	}
	checkGolden(t, fig)
	whs, srs := fig.Find("ApproxIoT"), fig.Find("SRS")
	if whs == nil || srs == nil || len(whs.Y) != 6 {
		t.Fatalf("malformed figure: %+v", fig)
	}
	// Claim 1: ApproxIoT beats SRS on average across the sweep.
	if seriesMean(whs) >= seriesMean(srs) {
		t.Errorf("ApproxIoT mean loss %.4f%% not below SRS %.4f%%", seriesMean(whs), seriesMean(srs))
	}
	// Claim: ApproxIoT stays well under 1% on the Gaussian mix.
	for i, y := range whs.Y {
		if y > 1 {
			t.Errorf("ApproxIoT loss at %v%% = %.3f%%, want < 1%%", whs.X[i], y)
		}
	}
	// Claim 2: losses trend down with fraction (compare sweep endpoints).
	if whs.Y[len(whs.Y)-1] > whs.Y[0] {
		t.Errorf("ApproxIoT loss did not shrink: %.4f%% @10%% → %.4f%% @90%%", whs.Y[0], whs.Y[len(whs.Y)-1])
	}
}

func TestFig5bShape(t *testing.T) {
	fig, err := Fig5b(testScale())
	if err != nil {
		t.Fatalf("Fig5b: %v", err)
	}
	checkGolden(t, fig)
	whs, srs := fig.Find("ApproxIoT"), fig.Find("SRS")
	if seriesMean(whs) >= seriesMean(srs) {
		t.Errorf("Poisson: ApproxIoT mean %.4f%% not below SRS %.4f%%", seriesMean(whs), seriesMean(srs))
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(testScale())
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	whs, srs, native := fig.Find("ApproxIoT"), fig.Find("SRS"), fig.Find("Native")
	w10, _ := whs.At(10)
	w100, _ := whs.At(100)
	n, _ := native.At(10)
	// Claim 4: throughput grows as the fraction shrinks; 10% well above native.
	if w10 < 1.5*n {
		t.Errorf("throughput at 10%% (%.0f) not well above native (%.0f)", w10, n)
	}
	if w10 < w100 {
		t.Errorf("throughput at 10%% (%.0f) below 100%% (%.0f)", w10, w100)
	}
	// Claim 3: at 100% both sampled systems are in native's ballpark.
	s100, _ := srs.At(100)
	if w100 < 0.4*n || s100 < 0.4*n {
		t.Errorf("100%% fraction throughput (%0.f / %0.f) far below native %0.f", w100, s100, n)
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(testScale())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	checkGolden(t, fig)
	for _, label := range []string{"ApproxIoT", "SRS"} {
		s := fig.Find(label)
		for i, pct := range s.X {
			want := 100 - pct // saving ≈ 100·(1−f)
			if diff := s.Y[i] - want; diff > 8 || diff < -8 {
				t.Errorf("%s saving at %v%% = %.1f%%, want ~%.0f%%", label, pct, s.Y[i], want)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(testScale())
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	checkGolden(t, fig)
	whs, native := fig.Find("ApproxIoT"), fig.Find("Native")
	w10, _ := whs.At(10)
	n10, _ := native.At(10)
	// Claim 6: sampled latency well under saturated native latency.
	if n10 < 2*w10 {
		t.Errorf("native latency %.2fs not ≫ ApproxIoT@10%% %.2fs", n10, w10)
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(testScale())
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	checkGolden(t, fig)
	whs, srs := fig.Find("ApproxIoT"), fig.Find("SRS")
	// ApproxIoT grows with window.
	if whs.Y[len(whs.Y)-1] <= whs.Y[0] {
		t.Errorf("ApproxIoT latency flat across windows: %v", whs.Y)
	}
	// SRS stays (nearly) flat: growth factor ≪ the 8× window growth.
	if srs.Y[0] > 0 && srs.Y[len(srs.Y)-1] > 3*srs.Y[0] {
		t.Errorf("SRS latency grew %.1f× across windows, want ~flat", srs.Y[len(srs.Y)-1]/srs.Y[0])
	}
}

func TestFig10aShape(t *testing.T) {
	fig, err := Fig10a(testScale())
	if err != nil {
		t.Fatalf("Fig10a: %v", err)
	}
	checkGolden(t, fig)
	whs, srs := fig.Find("ApproxIoT"), fig.Find("SRS")
	if seriesMean(whs) >= seriesMean(srs) {
		t.Errorf("fluctuating rates: ApproxIoT %.4f%% not below SRS %.4f%%", seriesMean(whs), seriesMean(srs))
	}
}

func TestFig10cShape(t *testing.T) {
	fig, err := Fig10c(testScale())
	if err != nil {
		t.Fatalf("Fig10c: %v", err)
	}
	checkGolden(t, fig)
	whs, srs := fig.Find("ApproxIoT"), fig.Find("SRS")
	// The headline claim: under extreme skew SRS collapses, ApproxIoT holds.
	if seriesMean(srs) < 3*seriesMean(whs) {
		t.Errorf("skew: SRS mean %.3f%% not ≫ ApproxIoT %.3f%%", seriesMean(srs), seriesMean(whs))
	}
	for i, y := range whs.Y {
		if y > 2 {
			t.Errorf("ApproxIoT skew loss at %v%% = %.3f%%, want small", whs.X[i], y)
		}
	}
}

func TestFig11aShape(t *testing.T) {
	fig, err := Fig11a(testScale())
	if err != nil {
		t.Fatalf("Fig11a: %v", err)
	}
	checkGolden(t, fig)
	taxi, poll := fig.Find("NYC-Taxi"), fig.Find("Brasov-Pollution")
	// Pollution values are more stable → lower/flatter curve than taxi.
	if seriesMean(poll) > seriesMean(taxi) {
		t.Errorf("pollution loss %.4f%% above taxi %.4f%%, want lower (stabler values)", seriesMean(poll), seriesMean(taxi))
	}
}

func TestFig11bShape(t *testing.T) {
	fig, err := Fig11b(testScale())
	if err != nil {
		t.Fatalf("Fig11b: %v", err)
	}
	taxi, native := fig.Find("NYC-Taxi"), fig.Find("Native")
	t10, _ := taxi.At(10)
	n10, _ := native.At(10)
	if t10 < 1.5*n10 {
		t.Errorf("taxi throughput at 10%% (%.0f) not well above native (%.0f)", t10, n10)
	}
}

func TestAblationsRun(t *testing.T) {
	s := testScale()
	s.Reps = 1
	for _, id := range []string{"A1", "A2", "A3", "A4"} {
		fig, err := Run(id, s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Series) == 0 || len(fig.Series[0].Y) == 0 {
			t.Fatalf("%s produced no data", id)
		}
	}
}

func TestHierarchySavesBandwidth(t *testing.T) {
	s := testScale()
	s.Reps = 1
	fig, err := AblationHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	mb := fig.Find("sampled-segment MB")
	hier, _ := mb.At(1)
	rootOnly, _ := mb.At(2)
	if rootOnly < 3*hier {
		t.Errorf("root-only bandwidth %.2fMB not ≫ hierarchical %.2fMB", rootOnly, hier)
	}
}

func TestRegistryCoversAllFigures(t *testing.T) {
	want := []string{"5a", "5b", "6", "7", "8", "9", "10a", "10b", "10c", "11a", "11b"}
	for _, id := range want {
		if _, ok := registry[id]; !ok {
			t.Errorf("figure %s missing from registry", id)
		}
	}
	if _, err := Run("nope", testScale()); err == nil {
		t.Error("unknown figure id accepted")
	}
}

func TestIDsOrdering(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(registry))
	}
	if ids[0] != "5a" {
		t.Errorf("first id = %s, want 5a", ids[0])
	}
	last := ids[len(ids)-1]
	if !strings.HasPrefix(last, "A") {
		t.Errorf("ablations should sort last, got %s", last)
	}
}

func TestFigureFormat(t *testing.T) {
	fig := Figure{
		ID: "5a", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}},
		Notes:  "note",
	}
	out := fig.Format()
	for _, want := range []string{"Figure 5a", "demo", "note", "0.25", "y-axis"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}
