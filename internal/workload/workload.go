// Package workload generates the input streams of the paper's evaluation:
// the synthetic Gaussian and Poisson sub-stream mixes of §V, the
// fluctuating-rate settings and extreme-skew stream of Fig. 10, and the two
// real-world case studies of §VI. The real traces (DEBS'15 NYC taxi rides
// and the CityBench Brasov pollution feed) are not redistributable, so this
// package ships synthetic generators that preserve the statistical
// properties the evaluation exercises — value dispersion across sub-streams,
// arrival-rate heterogeneity, heavy tails, and slowly-drifting sensor
// levels. See DESIGN.md §4 for the substitution rationale.
package workload

import (
	"math"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/xrand"
)

// ValueDist draws item values for one sub-stream. Implementations may be
// stateful (e.g. AR1); each sub-stream owns its instance.
type ValueDist interface {
	Sample(r *xrand.Rand) float64
}

// Gaussian draws N(Mu, Sigma) values — the paper's sub-streams A–D in Fig. 5a.
type Gaussian struct{ Mu, Sigma float64 }

// Sample implements ValueDist.
func (g Gaussian) Sample(r *xrand.Rand) float64 { return r.Normal(g.Mu, g.Sigma) }

// Poisson draws Poisson(Lambda) values — Fig. 5b and Fig. 10c.
type Poisson struct{ Lambda float64 }

// Sample implements ValueDist.
func (p Poisson) Sample(r *xrand.Rand) float64 { return float64(r.Poisson(p.Lambda)) }

// LogNormal draws exp(N(Mu, Sigma)) values — heavy-tailed fares.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements ValueDist.
func (l LogNormal) Sample(r *xrand.Rand) float64 { return r.LogNormal(l.Mu, l.Sigma) }

// Constant always returns V; useful in tests and count-style queries.
type Constant struct{ V float64 }

// Sample implements ValueDist.
func (c Constant) Sample(*xrand.Rand) float64 { return c.V }

// AR1 draws a mean-reverting autoregressive series:
// x ← Level + Phi·(x − Level) + N(0, Sigma). It models "stable" sensor
// readings like the Brasov pollution levels (§VI-B), whose low dispersion is
// exactly why the paper sees a flatter accuracy curve there.
type AR1 struct {
	Level float64
	Phi   float64
	Sigma float64

	state       float64
	initialized bool
}

// Sample implements ValueDist.
func (a *AR1) Sample(r *xrand.Rand) float64 {
	if !a.initialized {
		a.state = a.Level
		a.initialized = true
	}
	a.state = a.Level + a.Phi*(a.state-a.Level) + r.Normal(0, a.Sigma)
	return a.state
}

// RateFunc modulates a sub-stream's arrival rate over elapsed stream time
// (1.0 = nominal). Used for the taxi workload's diurnal cycle.
type RateFunc func(elapsed time.Duration) float64

// SubstreamSpec configures one sub-stream (stratum).
type SubstreamSpec struct {
	// Source identifies the stratum.
	Source stream.SourceID
	// Rate is the nominal arrival rate in items/second.
	Rate float64
	// Value draws item values.
	Value ValueDist
	// Modulate optionally scales Rate over time (nil = constant).
	Modulate RateFunc
}

// Generator produces items for a set of sub-streams, interval by interval.
// Counts are deterministic given the seed: each sub-stream accumulates
// fractional items across intervals so long-run rates are exact.
type Generator struct {
	specs []SubstreamSpec
	rngs  []*xrand.Rand
	carry []float64
	start time.Time
	begun bool
}

// New returns a generator over specs; each sub-stream gets a decorrelated
// RNG derived from seed.
func New(seed uint64, specs ...SubstreamSpec) *Generator {
	g := &Generator{
		specs: append([]SubstreamSpec(nil), specs...),
		rngs:  make([]*xrand.Rand, len(specs)),
		carry: make([]float64, len(specs)),
	}
	for i := range g.rngs {
		g.rngs[i] = xrand.Split(seed, uint64(i))
	}
	return g
}

// Substreams returns the configured sub-stream IDs in order.
func (g *Generator) Substreams() []stream.SourceID {
	out := make([]stream.SourceID, len(g.specs))
	for i, s := range g.specs {
		out[i] = s.Source
	}
	return out
}

// TotalRate returns the sum of nominal rates (items/second).
func (g *Generator) TotalRate() float64 {
	var r float64
	for _, s := range g.specs {
		r += s.Rate
	}
	return r
}

// Generate produces the items arriving in [from, from+dt), timestamps spread
// evenly through the interval. The first call pins the generator's epoch for
// rate modulation.
func (g *Generator) Generate(from time.Time, dt time.Duration) []stream.Item {
	return g.GenerateInto(nil, from, dt)
}

// GenerateInto is Generate appending onto dst — pass a recycled dst[:0], and
// a caller that is done with each chunk before asking for the next allocates
// nothing once dst has grown to a chunk's size. It draws exactly what
// Generate draws.
func (g *Generator) GenerateInto(dst []stream.Item, from time.Time, dt time.Duration) []stream.Item {
	if !g.begun {
		g.start = from
		g.begun = true
	}
	elapsed := from.Sub(g.start)
	items := dst
	for i, spec := range g.specs {
		rate := spec.Rate
		if spec.Modulate != nil {
			rate *= avgModulation(spec.Modulate, elapsed, dt)
		}
		exact := rate*dt.Seconds() + g.carry[i]
		n := int(exact)
		g.carry[i] = exact - float64(n)
		if n <= 0 {
			continue
		}
		step := dt / time.Duration(n)
		rng := g.rngs[i]
		for k := 0; k < n; k++ {
			items = append(items, stream.Item{
				Source: spec.Source,
				Value:  spec.Value.Sample(rng),
				Ts:     from.Add(time.Duration(k)*step + step/2),
			})
		}
	}
	return items
}

// avgModulation approximates the mean of a RateFunc over [elapsed,
// elapsed+dt) by midpoint sampling, so fast-cycling modulators (OnOff
// bursts shorter than the interval) do not alias against the interval grid.
func avgModulation(f RateFunc, elapsed time.Duration, dt time.Duration) float64 {
	const samples = 16
	var sum float64
	step := dt / samples
	for i := 0; i < samples; i++ {
		sum += f(elapsed + time.Duration(i)*step + step/2)
	}
	return sum / samples
}

// Diurnal returns a RateFunc with a 24-hour sinusoidal cycle: rate peaks at
// peakHour with amplitude amp (0..1), modelling taxi-demand cycles.
func Diurnal(peakHour float64, amp float64) RateFunc {
	if amp < 0 {
		amp = 0
	}
	if amp > 1 {
		amp = 1
	}
	return func(elapsed time.Duration) float64 {
		hours := elapsed.Hours()
		return 1 + amp*math.Cos(2*math.Pi*(hours-peakHour)/24)
	}
}

// OnOff returns a bursty RateFunc: within each period the sub-stream runs at
// burstFactor× its nominal rate for duty·period, then goes quiet. The mean
// rate multiplier is duty·burstFactor — callers wanting the nominal long-run
// rate should pick burstFactor = 1/duty. This models the paper's
// "long-tailed" input streams (§III-A), as opposed to uniform-speed ones.
func OnOff(period time.Duration, duty, burstFactor float64) RateFunc {
	if period <= 0 {
		period = time.Second
	}
	duty = math.Min(math.Max(duty, 0.01), 1)
	if burstFactor <= 0 {
		burstFactor = 1 / duty
	}
	return func(elapsed time.Duration) float64 {
		phase := math.Mod(elapsed.Seconds(), period.Seconds()) / period.Seconds()
		if phase < duty {
			return burstFactor
		}
		return 0
	}
}
