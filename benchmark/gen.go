package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
)

// The generator turns -seed into per-slot input blocks during set-up. The
// pushers replay the blocks, stamping only Item.Ts; the system under test
// sees nothing but Push calls. The seed is the only source of randomness:
// the same seed yields byte-identical blocks (see digest).

// winRef is the exact answer for one event window, computed from the
// generated input alone.
type winRef struct {
	sum   float64
	count int64
	p90   float64           // exact 0.9-quantile of the window's values
	top   []stream.SourceID // true top-8 strata by SUM, ranked
}

// slotRNG derives one independent stream per (seed, slot, salt).
func slotRNG(seed int64, slot, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(slot)*7919 + int64(salt)*104_729))
}

// value draws one reading: a shifted exponential scaled per stratum, so
// strata differ in mean and the tail makes sampling error non-trivial.
func value(rng *rand.Rand, scale float64) float64 {
	return scale * (0.2 + rng.ExpFloat64())
}

// closedInput is the closed-loop workloads' input: cycle distinct windows of
// perWindow in-order values per slot, one stratum per slot.
type closedInput struct {
	perWindow, cycle int
	window           time.Duration
	vals             [sources][]float64 // cycle*perWindow values per slot
	src              [sources]stream.SourceID
}

func genClosed(sp spec, seed int64) *closedInput {
	in := &closedInput{perWindow: sp.perWindow, cycle: sp.cycle, window: sp.window}
	for s := 0; s < sources; s++ {
		rng := slotRNG(seed, s, 0)
		scale := 10 * float64(s+1)
		v := make([]float64, sp.cycle*sp.perWindow)
		for i := range v {
			v[i] = value(rng, scale)
		}
		in.vals[s] = v
		in.src[s] = stream.SourceID(fmt.Sprintf("s%d", s))
	}
	return in
}

// values returns slot s's values for global window w.
func (in *closedInput) values(s int, w int64) []float64 {
	k := int(w % int64(in.cycle))
	return in.vals[s][k*in.perWindow : (k+1)*in.perWindow]
}

// start is global window w's first instant on the virtual timeline.
func (in *closedInput) start(w int64) time.Time {
	return closedEpoch.Add(time.Duration(w) * in.window)
}

// fill writes slot s's items from offset in window w into items: the
// generated values, evenly spaced in-order event timestamps.
func (in *closedInput) fill(items []stream.Item, s int, w int64, offset int) {
	gap := in.window / time.Duration(in.perWindow)
	ts := in.start(w).Add(time.Duration(offset) * gap)
	vals := in.values(s, w)[offset:]
	for i := range items {
		items[i] = stream.Item{Source: in.src[s], Value: vals[i], Ts: ts}
		ts = ts.Add(gap)
	}
}

// reference returns the exact SUM and COUNT of each cycle window; global
// window w repeats cycle window w mod cycle.
func (in *closedInput) reference() []winRef {
	refs := make([]winRef, in.cycle)
	for k := range refs {
		for s := 0; s < sources; s++ {
			for _, v := range in.values(s, int64(k)) {
				refs[k].sum += v
			}
		}
		refs[k].count = int64(sources * in.perWindow)
	}
	return refs
}

func (in *closedInput) digest() uint64 {
	h := fnv.New64a()
	for s := 0; s < sources; s++ {
		h.Write([]byte(in.src[s]))
		hashFloats(h, in.vals[s])
	}
	return h.Sum64()
}

func hashFloats(h hash.Hash64, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// pacedStep is one constant-rate stretch of the open-loop schedule.
type pacedStep struct {
	name      string
	rate      int
	firstTick int // global tick index of the step's first tick
	ticks     int
	timed     bool // false for the warm-up step
}

// pacedInput is the open-loop workload's input: for every slot and tick, a
// batch of items sorted by stratum (so each stratum's run becomes one
// keyed record), with a per-item lateness in ticks.
type pacedInput struct {
	steps          []pacedStep
	ticksPerWindow int
	lateMaxTicks   int
	totalTicks     int

	names [sources][]stream.SourceID // the slot's strata
	off   [sources][]int32           // off[s][t]..off[s][t+1] is tick t's batch
	vals  [sources][]float64
	strat [sources][]uint8 // index into names[s]
	late  [sources][]uint8 // ticks late; > lateMaxTicks means beyond AllowedLateness
}

// windowsOf rounds a duration down to whole event windows, at least one.
func windowsOf(d time.Duration, window time.Duration) int {
	n := int(d / window)
	if n < 1 {
		n = 1
	}
	return n
}

func genPaced(sp spec, seed int64, seconds float64) *pacedInput {
	tpw := int(sp.window / sp.tick)
	in := &pacedInput{ticksPerWindow: tpw, lateMaxTicks: sp.lateMaxTicks}
	warmW := windowsOf(time.Duration(sp.warmSeconds*float64(time.Second)), sp.window)
	stepW := windowsOf(time.Duration(0.3*seconds*float64(time.Second)), sp.window)
	in.steps = append(in.steps, pacedStep{name: "warm", rate: sp.warmRate, ticks: warmW * tpw})
	for _, r := range sp.rates {
		in.steps = append(in.steps, pacedStep{name: r.name, rate: r.perSecond, ticks: stepW * tpw, timed: true})
	}
	for i := range in.steps {
		in.steps[i].firstTick = in.totalTicks
		in.totalTicks += in.steps[i].ticks
	}

	perSlot := sp.strata / sources
	tickSeconds := sp.tick.Seconds()
	for s := 0; s < sources; s++ {
		rng := slotRNG(seed, s, 1)
		// Slot s carries global strata s, s+8, s+16, ...; Zipf weight by
		// global rank, so every slot mixes heavy and rare strata.
		cum := make([]float64, perSlot)
		scale := make([]float64, perSlot)
		var total float64
		for k := 0; k < perSlot; k++ {
			g := s + k*sources
			total += 1 / math.Pow(float64(g+1), sp.zipfS)
			cum[k] = total
			scale[k] = 10 + float64(g*37%101)
			in.names[s] = append(in.names[s], stream.SourceID(fmt.Sprintf("z%03d", g)))
		}
		counts := make([]int, perSlot)
		in.off[s] = make([]int32, 0, in.totalTicks+1)
		for _, st := range in.steps {
			perTick := float64(st.rate) * tickSeconds / sources
			var owed float64
			for t := 0; t < st.ticks; t++ {
				in.off[s] = append(in.off[s], int32(len(in.vals[s])))
				owed += perTick
				n := int(owed)
				owed -= float64(n)
				for k := range counts {
					counts[k] = 0
				}
				for i := 0; i < n; i++ {
					counts[sort.SearchFloat64s(cum, rng.Float64()*total)]++
				}
				tick := st.firstTick + t
				for k, c := range counts {
					for i := 0; i < c; i++ {
						in.vals[s] = append(in.vals[s], value(rng, scale[k]))
						in.strat[s] = append(in.strat[s], uint8(k))
						in.late[s] = append(in.late[s], lateness(sp, rng, st.timed, tick))
					}
				}
			}
		}
		in.off[s] = append(in.off[s], int32(len(in.vals[s])))
	}
	return in
}

// lateness draws one item's delay in ticks: mostly 0, lateShare within the
// allowed horizon, tooLateShare far beyond it. The warm-up step emits
// nothing late, and no event is stamped before the schedule's origin.
func lateness(sp spec, rng *rand.Rand, timed bool, tick int) uint8 {
	if !timed {
		return 0
	}
	u := rng.Float64()
	switch {
	case u < sp.tooLateShare && tick >= sp.tooLateTicks[1]:
		return uint8(sp.tooLateTicks[0] + rng.Intn(sp.tooLateTicks[1]-sp.tooLateTicks[0]+1))
	case u < sp.tooLateShare+sp.lateShare && tick >= sp.lateMaxTicks:
		return uint8(1 + rng.Intn(sp.lateMaxTicks))
	}
	return 0
}

// batch appends slot s's items of tick n onto dst: event time is the
// tick's due instant minus each item's lateness.
func (in *pacedInput) batch(dst []stream.Item, s, n int, due time.Time, tick time.Duration) []stream.Item {
	for i := in.off[s][n]; i < in.off[s][n+1]; i++ {
		dst = append(dst, stream.Item{
			Source: in.names[s][in.strat[s][i]],
			Value:  in.vals[s][i],
			Ts:     due.Add(-time.Duration(in.late[s][i]) * tick),
		})
	}
	return dst
}

// stepOf returns the step that owns global tick n.
func (in *pacedInput) stepOf(n int) int {
	for i := len(in.steps) - 1; i > 0; i-- {
		if n >= in.steps[i].firstTick {
			return i
		}
	}
	return 0
}

func (in *pacedInput) windows() int { return in.totalTicks / in.ticksPerWindow }

// reference assigns every generated item to its event window by the
// timestamp the schedule gives it and returns the exact per-window answers,
// plus the number of items emitted beyond the lateness horizon (which the
// system must count as late drops, never fold into a window).
func (in *pacedInput) reference() (refs []winRef, tooLate int64) {
	nw := in.windows()
	refs = make([]winRef, nw)
	vals := make([][]float64, nw)
	strata := make([]map[stream.SourceID]float64, nw)
	for w := range strata {
		strata[w] = make(map[stream.SourceID]float64)
	}
	for s := 0; s < sources; s++ {
		for t := 0; t < in.totalTicks; t++ {
			for i := in.off[s][t]; i < in.off[s][t+1]; i++ {
				late := int(in.late[s][i])
				if late > in.lateMaxTicks {
					tooLate++
					continue
				}
				w := (t - late) / in.ticksPerWindow
				v := in.vals[s][i]
				refs[w].sum += v
				refs[w].count++
				vals[w] = append(vals[w], v)
				strata[w][in.names[s][in.strat[s][i]]] += v
			}
		}
	}
	for w := range refs {
		if n := len(vals[w]); n > 0 {
			sort.Float64s(vals[w])
			refs[w].p90 = vals[w][int(math.Ceil(0.9*float64(n)))-1]
		}
		refs[w].top = topStrata(strata[w], 8)
	}
	return refs, tooLate
}

// topStrata ranks strata by SUM, ties lexicographic — the engine's rule.
func topStrata(sums map[stream.SourceID]float64, k int) []stream.SourceID {
	ids := make([]stream.SourceID, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if sums[ids[i]] != sums[ids[j]] {
			return sums[ids[i]] > sums[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

func (in *pacedInput) digest() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for s := 0; s < sources; s++ {
		for _, o := range in.off[s] {
			binary.LittleEndian.PutUint32(b[:], uint32(o))
			h.Write(b[:])
		}
		hashFloats(h, in.vals[s])
		h.Write(in.strat[s])
		h.Write(in.late[s])
	}
	return h.Sum64()
}
