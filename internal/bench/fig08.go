package bench

import (
	"fmt"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/topology"
)

// Fig8 reproduces Figure 8: end-to-end latency vs sampling fraction with a
// 1-second window and the datacenter saturated (the paper tuned source
// rates so the native root could not keep up). Native latency is dominated
// by the root's queueing backlog; ApproxIoT's shrinks with the fraction
// because the root only processes the sampled stream — a ~6× speedup at 10%.
func Fig8(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "8",
		Title:  "Latency vs sampling fraction (1s window, saturated root)",
		XLabel: "fraction%",
		YLabel: "latency (s)",
		Series: []Series{{Label: "ApproxIoT"}, {Label: "SRS"}, {Label: "Native"}},
		Notes:  "paper: ~6× speedup at 10% vs native",
	}
	src := gaussianMicroSources(scale.RatePerSubstream, topology.Testbed().Sources)
	// Saturate: the root can service only half the offered native load.
	rootWork := time.Duration(float64(time.Second) / (4 * scale.RatePerSubstream / 2))

	saturate := func(c *core.SimConfig) {
		c.RootWork = rootWork
		c.Spec.Window = time.Second
		// Saturation latency accumulates over time; give the backlog long
		// enough to dominate the window waits, as in the paper's runs.
		if min := 20 * time.Second; c.Duration < min {
			c.Duration = min
		}
	}
	native, err := simFor(sysNative, 1, src(scale.Seed), scale, saturate)
	if err != nil {
		return fig, fmt.Errorf("bench: fig8 native: %w", err)
	}
	for _, pct := range fractionsWithFullPct {
		f := pct / 100
		whs, err := simFor(sysWHS, f, src(scale.Seed), scale, saturate)
		if err != nil {
			return fig, fmt.Errorf("bench: fig8 WHS: %w", err)
		}
		srs, err := simFor(sysSRS, f, src(scale.Seed), scale, saturate)
		if err != nil {
			return fig, fmt.Errorf("bench: fig8 SRS: %w", err)
		}
		fig.Series[0].Point(pct, whs.Latency.Mean().Seconds())
		fig.Series[1].Point(pct, srs.Latency.Mean().Seconds())
		fig.Series[2].Point(pct, native.Latency.Mean().Seconds())
	}
	return fig, nil
}

// Fig9 reproduces Figure 9: latency vs window size at a fixed 10% fraction.
// ApproxIoT's latency grows with the window (items wait in every edge
// layer's reservoir until the interval closes) while the SRS-based system —
// which needs no window at the edges — stays flat.
func Fig9(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "9",
		Title:  "Latency vs window size (10% fraction)",
		XLabel: "window (s)",
		YLabel: "latency (s)",
		Series: []Series{{Label: "ApproxIoT"}, {Label: "SRS"}},
		Notes:  "paper: ApproxIoT grows with window, SRS flat",
	}
	src := gaussianMicroSources(scale.RatePerSubstream, topology.Testbed().Sources)
	windows := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	for _, w := range windows {
		w := w
		mutate := func(c *core.SimConfig) {
			c.Spec.Window = w
			if d := 12 * w; c.Duration < d {
				c.Duration = d
			}
		}
		whs, err := simFor(sysWHS, 0.1, src(scale.Seed), scale, mutate)
		if err != nil {
			return fig, fmt.Errorf("bench: fig9 WHS: %w", err)
		}
		srs, err := simFor(sysSRS, 0.1, src(scale.Seed), scale, mutate)
		if err != nil {
			return fig, fmt.Errorf("bench: fig9 SRS: %w", err)
		}
		fig.Series[0].Point(w.Seconds(), whs.Latency.Mean().Seconds())
		fig.Series[1].Point(w.Seconds(), srs.Latency.Mean().Seconds())
	}
	return fig, nil
}
