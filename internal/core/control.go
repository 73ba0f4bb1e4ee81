package core

import (
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"

	"github.com/approxiot/approxiot/internal/query"
)

// This file is the control plane for the §IV-B feedback mechanism.
//
// The adjusted fraction travels the same way the data does: the root
// observes each merged WindowResult, asks the FeedbackController for the
// next fraction, and publishes a control record to the plan's
// single-partition control topic. Every shard-group member runs a standalone
// consumer on that topic and drains it at its own window boundary — fraction
// changes therefore land only between intervals, never mid-window, so Eq. 8
// weight compounding (and with it the exact count invariant) is untouched.
// In simulation the control topic lands at the send instant, so every
// member's next window close reads the fraction the root just published.

// controlRecordSize is the wire size of one control record: sequence
// number plus the fraction, both fixed-width big-endian.
const controlRecordSize = 16

// ErrBadControlRecord reports an undecodable control-topic payload.
var ErrBadControlRecord = errors.New("core: malformed control record")

// ErrFeedbackNeedsQuery rejects adaptive runs whose every registered query
// is COUNT: Eq. 8 makes COUNT exact (zero-width bound), so the controller
// would read relative error 0 on every window and silently decay the
// fraction to its floor. Register SUM or MEAN alongside to adapt on.
var ErrFeedbackNeedsQuery = errors.New("core: feedback needs a non-COUNT query to observe (COUNT is exact, its bound is always 0)")

// encodeControl packs one fraction update. seq is the publishing window's
// sequence number — offsets already order the log, but the sequence makes
// records self-describing for debugging and cross-run journaling.
func encodeControl(seq uint64, fraction float64) []byte {
	buf := make([]byte, controlRecordSize)
	binary.BigEndian.PutUint64(buf[0:8], seq)
	binary.BigEndian.PutUint64(buf[8:16], math.Float64bits(fraction))
	return buf
}

// decodeControl unpacks a control record, validating the fraction.
func decodeControl(value []byte) (seq uint64, fraction float64, err error) {
	if len(value) != controlRecordSize {
		return 0, 0, ErrBadControlRecord
	}
	seq = binary.BigEndian.Uint64(value[0:8])
	fraction = math.Float64frombits(binary.BigEndian.Uint64(value[8:16]))
	if math.IsNaN(fraction) || fraction <= 0 || fraction > 1 {
		return 0, 0, ErrBadControlRecord
	}
	return seq, fraction, nil
}

// dynamicCost is the per-member live cost function of an adaptive run: an
// EffectiveFractionBudget whose fraction is swapped by the control plane.
// Reads and writes are a single atomic word, but by construction writes
// only happen at the member's window boundary (the control topic is
// drained immediately before CloseInterval), so a whole interval is
// sampled under one fraction.
type dynamicCost struct {
	bits atomic.Uint64
}

var _ WeightedCostFunction = (*dynamicCost)(nil)

func newDynamicCost(fraction float64) *dynamicCost {
	d := &dynamicCost{}
	d.set(fraction)
	return d
}

func (d *dynamicCost) fraction() float64 { return math.Float64frombits(d.bits.Load()) }

func (d *dynamicCost) set(f float64) { d.bits.Store(math.Float64bits(f)) }

// SampleSize implements CostFunction at the current fraction.
func (d *dynamicCost) SampleSize(observed int) int {
	return FractionBudget{Fraction: d.fraction()}.SampleSize(observed)
}

// SampleSizeWeighted implements WeightedCostFunction: like
// EffectiveFractionBudget, the fraction is end-to-end — the first sampling
// layer thins the stream and layers above forward with weights intact.
func (d *dynamicCost) SampleSizeWeighted(estOriginal float64) int {
	return EffectiveFractionBudget{Fraction: d.fraction()}.SampleSizeWeighted(estOriginal)
}

// feedbackKind picks the query result the controller observes: the first
// registered kind whose error bound is informative. COUNT is skipped —
// Eq. 8 makes the count estimate exact (zero variance), so its relative
// bound is 0 on every window and observing it would silently decay the
// fraction to the floor no matter how wrong the other answers are.
func feedbackKind(kinds []query.Kind) query.Kind {
	for _, k := range kinds {
		if k != query.Count {
			return k
		}
	}
	return kinds[0]
}

// feedbackCost adapts a FeedbackController to effective-fraction semantics:
// the plan's cost of record in an adaptive run, read at window close by the
// nodes built from the plan alone — the simulator's streaming edge — while
// the sampling members follow the control topic. (The controller's own
// SampleSize is plain per-node fraction-of-observed — right for the
// single-node Estimator, compounding across a tree's layers — so tree runners
// use this wrapper instead.)
type feedbackCost struct {
	ctl *FeedbackController
}

var _ WeightedCostFunction = feedbackCost{}

// SampleSize implements CostFunction at the controller's current fraction.
func (f feedbackCost) SampleSize(observed int) int {
	return FractionBudget{Fraction: f.ctl.Fraction()}.SampleSize(observed)
}

// SampleSizeWeighted implements WeightedCostFunction.
func (f feedbackCost) SampleSizeWeighted(estOriginal float64) int {
	return EffectiveFractionBudget{Fraction: f.ctl.Fraction()}.SampleSizeWeighted(estOriginal)
}
