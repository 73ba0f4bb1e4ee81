package workload

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

func countBySource(items []stream.Item) map[stream.SourceID]int {
	m := make(map[stream.SourceID]int)
	for _, it := range items {
		m[it.Source]++
	}
	return m
}

func TestGeneratorExactLongRunRate(t *testing.T) {
	g := New(1, SubstreamSpec{Source: "s", Rate: 333.3, Value: Constant{1}})
	total := 0
	for i := 0; i < 100; i++ {
		items := g.Generate(epoch.Add(time.Duration(i)*time.Second), time.Second)
		total += len(items)
	}
	// 100 s at 333.3/s: fractional carry makes the long-run count exact.
	if total != 33330 {
		t.Fatalf("generated %d items over 100s, want 33330", total)
	}
}

func TestGeneratorTimestampsInsideInterval(t *testing.T) {
	g := New(2, SubstreamSpec{Source: "s", Rate: 1000, Value: Constant{1}})
	from := epoch.Add(5 * time.Second)
	items := g.Generate(from, time.Second)
	for _, it := range items {
		if it.Ts.Before(from) || !it.Ts.Before(from.Add(time.Second)) {
			t.Fatalf("timestamp %v outside [%v, %v)", it.Ts, from, from.Add(time.Second))
		}
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a := New(7, SubstreamSpec{Source: "s", Rate: 100, Value: Gaussian{Mu: 10, Sigma: 5}})
	b := New(7, SubstreamSpec{Source: "s", Rate: 100, Value: Gaussian{Mu: 10, Sigma: 5}})
	ia := a.Generate(epoch, time.Second)
	ib := b.Generate(epoch, time.Second)
	if len(ia) != len(ib) {
		t.Fatalf("counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i].Value != ib[i].Value {
			t.Fatal("same seed produced different values")
		}
	}
}

func TestGeneratorZeroRateSubstream(t *testing.T) {
	g := New(1, SubstreamSpec{Source: "quiet", Rate: 0, Value: Constant{1}})
	if items := g.Generate(epoch, time.Minute); len(items) != 0 {
		t.Fatalf("zero-rate sub-stream produced %d items", len(items))
	}
}

func TestGeneratorLowRateAccumulates(t *testing.T) {
	// 0.2 items/s: one item every 5 one-second intervals via carry.
	g := New(1, SubstreamSpec{Source: "slow", Rate: 0.2, Value: Constant{1}})
	total := 0
	for i := 0; i < 50; i++ {
		total += len(g.Generate(epoch.Add(time.Duration(i)*time.Second), time.Second))
	}
	if total != 10 {
		t.Fatalf("slow sub-stream produced %d items over 50s, want 10", total)
	}
}

func TestGaussianMicroShape(t *testing.T) {
	g := GaussianMicro(3, 1000)
	items := g.Generate(epoch, time.Second)
	counts := countBySource(items)
	if len(counts) != 4 {
		t.Fatalf("sub-streams = %d, want 4", len(counts))
	}
	for _, src := range []stream.SourceID{"A", "B", "C", "D"} {
		if counts[src] != 1000 {
			t.Errorf("%s count = %d, want 1000", src, counts[src])
		}
	}
	// Spot-check value scales: D's values should dwarf A's.
	var sumA, sumD float64
	for _, it := range items {
		switch it.Source {
		case "A":
			sumA += it.Value
		case "D":
			sumD += it.Value
		}
	}
	meanA, meanD := sumA/1000, sumD/1000
	if math.Abs(meanA-10) > 2 {
		t.Errorf("A mean = %.1f, want ~10", meanA)
	}
	if math.Abs(meanD-100000) > 2000 {
		t.Errorf("D mean = %.0f, want ~100000", meanD)
	}
}

func TestPoissonMicroMeans(t *testing.T) {
	g := PoissonMicro(4, 2000)
	items := g.Generate(epoch, time.Second)
	sums := map[stream.SourceID]float64{}
	counts := countBySource(items)
	for _, it := range items {
		sums[it.Source] += it.Value
	}
	wants := map[stream.SourceID]float64{"A": 10, "B": 100, "C": 1000, "D": 10000}
	for src, want := range wants {
		mean := sums[src] / float64(counts[src])
		if math.Abs(mean-want)/want > 0.1 {
			t.Errorf("%s mean = %.1f, want ~%.0f", src, mean, want)
		}
	}
}

func TestSettingsMatchPaper(t *testing.T) {
	s := Settings()
	if len(s) != 3 {
		t.Fatalf("settings = %d, want 3", len(s))
	}
	if s[0].Rates != [4]float64{50000, 25000, 12500, 625} {
		t.Errorf("Setting1 = %v", s[0].Rates)
	}
	if s[1].Rates != [4]float64{25000, 25000, 25000, 25000} {
		t.Errorf("Setting2 = %v", s[1].Rates)
	}
	if s[2].Rates != [4]float64{625, 12500, 25000, 50000} {
		t.Errorf("Setting3 = %v", s[2].Rates)
	}
}

func TestGaussianSettingScalesRates(t *testing.T) {
	g := GaussianSetting(1, Settings()[0], 0.01) // 500:250:125:6.25 items/s
	items := g.Generate(epoch, time.Second)
	counts := countBySource(items)
	if counts["A"] != 500 || counts["B"] != 250 || counts["C"] != 125 {
		t.Fatalf("scaled counts = %v", counts)
	}
}

func TestExtremeSkewProportions(t *testing.T) {
	g := ExtremeSkew(5, 100000)
	items := g.Generate(epoch, time.Second)
	counts := countBySource(items)
	if got := counts["A"]; got != 80000 {
		t.Errorf("A = %d, want 80000 (80%%)", got)
	}
	if got := counts["B"]; got != 19890 {
		t.Errorf("B = %d, want 19890 (19.89%%)", got)
	}
	if got := counts["C"]; got != 100 {
		t.Errorf("C = %d, want 100 (0.1%%)", got)
	}
	if got := counts["D"]; got != 10 {
		t.Errorf("D = %d, want 10 (0.01%%)", got)
	}
	// D's items must be enormous (λ=10⁷): the sum should be dominated by D.
	var sumD, sumAll float64
	for _, it := range items {
		sumAll += it.Value
		if it.Source == "D" {
			sumD += it.Value
		}
	}
	if sumD/sumAll < 0.9 {
		t.Errorf("D carries %.0f%% of the total value, want > 90%%", 100*sumD/sumAll)
	}
}

func TestNYCTaxiHeterogeneousRates(t *testing.T) {
	g := NYCTaxi(6, 10, 1000)
	items := g.Generate(epoch, time.Second)
	counts := countBySource(items)
	if len(counts) < 8 {
		t.Fatalf("only %d active zones, want most of 10", len(counts))
	}
	if counts["zone-00"] <= counts["zone-05"] {
		t.Errorf("zone-00 (%d) should be busier than zone-05 (%d)", counts["zone-00"], counts["zone-05"])
	}
	for _, it := range items {
		if it.Value <= 0 {
			t.Fatal("non-positive fare generated")
		}
	}
}

func TestNYCTaxiDiurnalModulation(t *testing.T) {
	g := NYCTaxi(6, 1, 1000)
	peak := len(g.Generate(epoch, time.Second)) // epoch pins t=0
	g2 := NYCTaxi(6, 1, 1000)
	g2.Generate(epoch, time.Second) // pin epoch
	// 19h later ≈ the peak hour for Diurnal(19, .5).
	later := len(g2.Generate(epoch.Add(19*time.Hour), time.Second))
	if later <= peak {
		t.Errorf("rate at peak hour (%d) not above midnight rate (%d)", later, peak)
	}
}

func TestBrasovPollutionStability(t *testing.T) {
	g := BrasovPollution(7, 300, 1) // 300 sensors/channel reporting every 1s
	items := g.Generate(epoch, time.Second)
	counts := countBySource(items)
	if len(counts) != 4 {
		t.Fatalf("channels = %d, want 4 pollutants", len(counts))
	}
	// AR(1) with small sigma: relative spread within a channel stays small.
	var sum, sumSq float64
	n := 0
	for _, it := range items {
		if it.Source != "pm" {
			continue
		}
		sum += it.Value
		sumSq += it.Value * it.Value
		n++
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if sd/mean > 0.3 {
		t.Errorf("pm coefficient of variation = %.2f, want stable (< 0.3)", sd/mean)
	}
}

func TestDiurnalBounds(t *testing.T) {
	f := Diurnal(19, 0.5)
	for h := 0; h < 48; h++ {
		v := f(time.Duration(h) * time.Hour)
		if v < 0.5-1e-9 || v > 1.5+1e-9 {
			t.Fatalf("Diurnal at %dh = %g outside [0.5, 1.5]", h, v)
		}
	}
	if got := f(19 * time.Hour); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("peak modulation = %g, want 1.5", got)
	}
	clamped := Diurnal(0, 5)
	if got := clamped(0); got > 2 {
		t.Fatalf("amp should clamp to 1: got %g", got)
	}
}

func TestAR1MeanReversion(t *testing.T) {
	a := &AR1{Level: 100, Phi: 0.9, Sigma: 1}
	r := xrand.New(1)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += a.Sample(r)
	}
	if mean := sum / n; math.Abs(mean-100) > 2 {
		t.Fatalf("AR1 long-run mean = %.2f, want ~100", mean)
	}
}

func TestTotalRate(t *testing.T) {
	g := GaussianMicro(1, 250)
	if got := g.TotalRate(); got != 1000 {
		t.Fatalf("TotalRate = %g, want 1000", got)
	}
}

func BenchmarkGenerateGaussianMicro(b *testing.B) {
	g := GaussianMicro(1, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(epoch.Add(time.Duration(i)*time.Second), time.Second)
	}
}

func BenchmarkGenerateExtremeSkew(b *testing.B) {
	g := ExtremeSkew(1, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(epoch.Add(time.Duration(i)*time.Second), time.Second)
	}
}
