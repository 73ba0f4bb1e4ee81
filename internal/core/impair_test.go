package core

import (
	"math"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/query"
)

// TestSimJitterPreservesInvariant: WAN jitter must not break the count
// invariant — links stay FIFO, so however records from different links
// interleave, each lands in the event window its timestamp names, and Eq. 8
// holds per pair regardless.
func TestSimJitterPreservesInvariant(t *testing.T) {
	cfg := testbedConfig(0.3)
	cfg.LinkJitter = 150 * time.Millisecond // larger than a chunk: reorders
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim with jitter: %v", err)
	}
	gotCount := res.TotalEstimate(query.Count)
	if rel := math.Abs(gotCount-float64(res.Produced)) / float64(res.Produced); rel > 1e-9 {
		t.Fatalf("jitter broke Eq. 8: %g vs %d", gotCount, res.Produced)
	}
	if loss := res.AccuracyLoss(query.Sum); loss > 0.05 {
		t.Fatalf("jitter degraded accuracy to %.3f", loss)
	}
}

// TestSimPacketLossDegradesGracefully: lost batches reduce the estimate
// proportionally; the system neither stalls nor panics, and the remaining
// estimate is still in the right ballpark.
func TestSimPacketLossDegradesGracefully(t *testing.T) {
	cfg := testbedConfig(0.5)
	cfg.LinkLoss = 0.1
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim with loss: %v", err)
	}
	gotCount := res.TotalEstimate(query.Count)
	ratio := gotCount / float64(res.Produced)
	// Loss applies per hop (3 hops): survival ≈ 0.9³ ≈ 0.73. Edge batches
	// are fewer and larger than source chunks, so the realized ratio has
	// wide variance; it must land strictly between "everything" and
	// "almost nothing".
	if ratio >= 1 || ratio < 0.4 {
		t.Fatalf("estimated/generated = %.3f under 10%% loss, want in [0.4, 1)", ratio)
	}
	if len(res.Windows) == 0 {
		t.Fatal("pipeline stalled under loss")
	}
}

// TestSimLossAndFailureCombined stacks impairments: a crashed edge node plus
// lossy links. The run must still complete with sane output.
func TestSimLossAndFailureCombined(t *testing.T) {
	cfg := testbedConfig(0.5)
	cfg.LinkLoss = 0.05
	cfg.LinkJitter = 20 * time.Millisecond
	cfg.Failures = []Failure{{Layer: 1, Node: 0, At: 2 * time.Second, For: time.Second}}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim with combined impairments: %v", err)
	}
	if res.Produced == 0 || len(res.Windows) == 0 {
		t.Fatal("no output under combined impairments")
	}
	got := res.TotalEstimate(query.Count)
	if got <= 0 || got >= float64(res.Produced) {
		t.Fatalf("estimated count %.0f of %d implausible", got, res.Produced)
	}
}

// TestSimJitterDeterministic: impairments are seeded, so impaired runs are
// still exactly reproducible.
func TestSimJitterDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := testbedConfig(0.3)
		cfg.LinkJitter = 30 * time.Millisecond
		cfg.LinkLoss = 0.02
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalEstimate(query.Sum)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("impaired runs differ: %g vs %g", a, b)
	}
}

// TestSimLossSparesEndOfStream: LinkLoss never drops an end-of-stream
// heartbeat. With aging off nothing else could close the windows a lost one
// was meant to close, so under heavy loss the run must still end with the
// last window of the stream reported.
func TestSimLossSparesEndOfStream(t *testing.T) {
	cfg := testbedConfig(0.5)
	cfg.LinkLoss = 0.3
	cfg.IdleTimeout = -1
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim with loss: %v", err)
	}
	end := simEpoch.Add(cfg.Duration)
	if n := len(res.Windows); n == 0 || !res.Windows[n-1].End.Equal(end) {
		t.Fatalf("last window reported of %d ends short of the stream's end %v", n, end)
	}
}
