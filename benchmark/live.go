package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/stream"
)

// setupReps is how many times a run sets up (generate, open, warm up)
// before measuring; setup_s is the median, and the last set-up is the one
// the measured phase continues on.
const setupReps = 7

// sliceOf returns how the closed-loop measured phase is cut into equal
// wall-clock slices: one second each, or twenty in all for a shorter run,
// so that the fastest tenth is never the single best slice.
func sliceOf(seconds float64) (n int, length time.Duration) {
	n = int(seconds)
	if n < 20 {
		n = 20
	}
	return n, time.Duration(seconds * float64(time.Second) / float64(n))
}

// segment is one timed slice of the measured phase: a second of a
// closed-loop run, or one rate step of the open-loop run. A run's timing
// metrics are quantiles over its segments (see endToEndValues), so a burst
// of interference from a neighbour on the shared box moves one segment,
// not the result.
type segment struct {
	name     string
	rate     int // offered items/s (open loop; 0 in a closed loop)
	wall     time.Duration
	items    int64
	cpuNs    []float64 // CPU ns per item, one sample per sub-slice
	latency  []float64 // ms per window whose last event fell in the segment; +Inf if never emitted
	lagStart int64     // Snapshot().IngestLag at the segment's start and end
	lagEnd   int64
	genLate  []float64 // open loop: how late each tick started, ms
}

func (s *segment) perSecond() float64 { return float64(s.items) / s.wall.Seconds() }
func (s *segment) p50() float64       { return quantile(sortedCopy(s.latency), 0.5) }
func (s *segment) p90() float64       { return quantile(sortedCopy(s.latency), 0.9) }

// liveRun is one live run's raw measurements, before they are folded into
// named metrics. End-to-end metrics only ever come from an untraced run.
type liveRun struct {
	sp     spec
	digest uint64 // of the generated input blocks

	setup []float64 // seconds, one per set-up repetition
	soak  float64   // seconds the untimed soak took (closed loop)
	// pushed counts every item pushed into the measured deployment, warm-up
	// included; the rest covers the measured phase only (first measured
	// push → deployment closed).
	pushed     int64
	items      int64
	pushErrors int64 // items whose Push returned an error
	mallocs    uint64
	allocBytes uint64
	segs       []segment

	out outcome
	// expected maps every event window that must be emitted (by start) to
	// its exact reference; tooLate is the number of items pushed beyond the
	// lateness horizon.
	expected map[int64]winRef
	tooLate  int64

	gcCPUFrac float64
	scrapeMs  []float64
	// discarded holds the set-up repetitions that were closed again; they
	// are released when the run is over.
	discarded []system
	// Traced runs only.
	ingestLagMax int64
	heapLivePeak uint64
}

// collector records, per event window (by start), the wall instant
// Config.OnWindow fired for it. The hook runs on the root's sweep
// goroutine: note the time and return.
type collector struct {
	mu sync.Mutex
	at map[int64]time.Time
	n  atomic.Int64
}

func (c *collector) onWindow(win core.WindowResult) {
	now := time.Now()
	c.mu.Lock()
	if c.at == nil {
		c.at = make(map[int64]time.Time)
	}
	c.at[win.Start.UnixNano()] = now
	c.mu.Unlock()
	c.n.Add(1)
}

func (c *collector) waitFor(n int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for c.n.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d window results after %v", c.n.Load(), n, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// emitted returns the recorded instants; call once the deployment is closed.
func (c *collector) emitted() map[int64]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

// sampler watches a running deployment at 10 Hz during a traced run:
// ingest lag from Snapshot and live heap from runtime/metrics.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	lag  int64
	heap uint64
}

const heapLiveMetric = "/gc/heap/live:bytes"
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

func startSampler(sys system) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
				if lag := sys.snapshot().IngestLag; lag > sm.lag {
					sm.lag = lag
				}
				if h := uint64(readMetric(heapLiveMetric)); h > sm.heap {
					sm.heap = h
				}
			}
		}
	}()
	return sm
}

func (sm *sampler) finish(run *liveRun) {
	close(sm.stop)
	<-sm.done
	run.ingestLagMax, run.heapLivePeak = sm.lag, sm.heap
}

// harness is what both drivers hold of one set-up: the open deployment,
// its eight valves, the window collector, and the push counters.
type harness struct {
	sp   spec
	sys  system
	push [sources]pushFn
	col  collector

	pushed   atomic.Int64
	pushErrs atomic.Int64 // items whose Push returned an error
	firstErr atomic.Pointer[error]
}

// open opens the workload's deployment and its valves.
func (h *harness) open(seed int64, rec *recorder) error {
	span := rec.begin("core.Open")
	sys, err := openSystem(h.sp, seed, h.col.onWindow)
	rec.end(span, 1)
	if err != nil {
		return err
	}
	h.sys = sys
	for s := range h.push {
		if h.push[s], err = sys.pusher(s); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) system() system { return h.sys }

// pushTo is one Push through a slot's valve, spanned and counted.
func (h *harness) pushTo(slot int, items []stream.Item, rec *recorder) {
	span := rec.begin("valve.Push")
	err := h.push[slot](items...)
	rec.end(span, int64(len(items)))
	if err != nil {
		h.pushErrs.Add(int64(len(items)))
		h.firstErr.CompareAndSwap(nil, &err)
		return
	}
	h.pushed.Add(int64(len(items)))
}

func (h *harness) err() error {
	if e := h.firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// phase marks the start of the measured phase.
type phase struct {
	mark         costMark
	gcCPU        float64
	pushed, errs int64
}

func (h *harness) beginPhase() phase {
	return phase{gcCPU: readMetric(gcCPUMetric), mark: markCost(), pushed: h.pushed.Load(), errs: h.pushErrs.Load()}
}

// endPhase closes the measured deployment and fills in the run's outcome,
// whole-phase cost counters and item counts. Every discarded set-up and
// the deployment itself are released after the closing cost mark.
func (h *harness) endPhase(run *liveRun, ph phase, rec *recorder, sm *sampler) error {
	span := rec.begin("core.Close")
	out, err := h.sys.finish()
	rec.end(span, 1)
	end := markCost()
	if sm != nil {
		sm.finish(run)
	}
	for _, d := range append(run.discarded, h.sys) {
		d.release()
	}
	run.discarded = nil
	if err == nil {
		err = h.err()
	}
	if err != nil {
		return err
	}
	run.out = out
	run.pushed = h.pushed.Load()
	run.items = run.pushed - ph.pushed
	run.pushErrors = h.pushErrs.Load() - ph.errs
	run.mallocs, run.allocBytes = end.mallocs-ph.mark.mallocs, end.bytes-ph.mark.bytes
	if cpu := end.cpu - ph.mark.cpu; cpu > 0 {
		run.gcCPUFrac = (readMetric(gcCPUMetric) - ph.gcCPU) / cpu.Seconds()
	}
	return nil
}

// closedState is one set-up of a closed-loop workload: input, deployment,
// and the pushers' shared clock.
type closedState struct {
	harness
	in *closedInput

	bar       *barrier
	stop      atomic.Bool
	endWindow atomic.Int64 // first window NOT to push; set at a barrier
	// pushedAt[w] is the instant every slot had pushed all of window w —
	// the instant the last event that can contribute to w left the
	// generator. Written inside the barrier.
	pushedAt []time.Time
}

func newClosedState(sp spec, seed int64) *closedState {
	st := &closedState{in: genClosed(sp, seed), bar: newBarrier(pushers)}
	st.sp = sp
	return st
}

func setupClosed(sp spec, seed int64, rec *recorder) (*closedState, error) {
	st := newClosedState(sp, seed)
	if err := st.open(seed, rec); err != nil {
		return nil, err
	}
	// Warm-up: fill caches and finish lazy set-up before anything is timed.
	// The last warm window only closes once the next window's data arrives,
	// so all but one result is awaited.
	warm := int64(sp.warmWindows)
	st.pushWindows(0, warm, nil)
	if err := st.col.waitFor(warm-1, 30*time.Second); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, st.err()
}

// pushWindows runs both pushers over windows [from, to) — or until stop is
// raised when to is open-ended — and returns the first window not pushed.
func (st *closedState) pushWindows(from, to int64, rec *recorder) int64 {
	st.endWindow.Store(to)
	var wg sync.WaitGroup
	next := make([]int64, pushers)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int, r *recorder) {
			defer wg.Done()
			next[p] = st.pusher(p, from, r)
		}(p, rec.fork())
	}
	wg.Wait()
	return next[0]
}

// pusher replays the slots it owns, window by window in event-time order,
// pushItems items per Push, stamping event timestamps on a virtual
// timeline. Closed loop: the next Push is issued when the previous one
// returns, so MaxIngestLag backpressure throttles the generator.
func (st *closedState) pusher(p int, from int64, rec *recorder) int64 {
	sp, in := st.sp, st.in
	var scratch [slotsPerPusher][]stream.Item
	for j := range scratch {
		scratch[j] = make([]stream.Item, sp.pushItems)
	}
	w := from
	for ; w < st.endWindow.Load(); w++ {
		for c := 0; c < sp.perWindow; c += sp.pushItems {
			for j, items := range scratch {
				slot := p*slotsPerPusher + j
				in.fill(items, slot, w, c)
				st.pushTo(slot, items, rec)
			}
		}
		st.bar.await(func() {
			for int64(len(st.pushedAt)) <= w {
				st.pushedAt = append(st.pushedAt, time.Time{})
			}
			st.pushedAt[w] = time.Now()
			if st.stop.Load() {
				st.endWindow.Store(w + 1)
			}
		})
	}
	return w
}

// setUp repeats a set-up setupReps times, timing each; all but the last
// are closed again, and the last is the one the measured phase runs on.
func setUp[S interface{ system() system }](run *liveRun, rec *recorder, open func(*recorder) (S, error)) (S, error) {
	for rep := 0; ; rep++ {
		last := rep == setupReps-1
		var r *recorder
		if last {
			r = rec // only the deployment that is measured is traced
		}
		t0 := time.Now()
		st, err := open(r)
		if err != nil {
			return st, fmt.Errorf("set-up %d: %w", rep, err)
		}
		run.setup = append(run.setup, time.Since(t0).Seconds())
		if last {
			return st, nil
		}
		if _, err := st.system().finish(); err != nil {
			return st, fmt.Errorf("closing set-up %d: %w", rep, err)
		}
		run.discarded = append(run.discarded, st.system())
	}
}

// runClosed measures one closed-loop workload for the given wall seconds.
func runClosed(sp spec, seed int64, seconds float64, rec *recorder) (*liveRun, error) {
	run := &liveRun{sp: sp}
	st, err := setUp(run, rec, func(r *recorder) (*closedState, error) { return setupClosed(sp, seed, r) })
	if err != nil {
		return nil, err
	}

	var sm *sampler
	if rec != nil {
		sm = startSampler(st.sys)
	}
	soakStart := time.Now()
	first := st.pushWindows(int64(sp.warmWindows), int64(sp.warmWindows+sp.soakWindows), nil)
	run.soak = time.Since(soakStart).Seconds()
	ph := st.beginPhase()
	var last int64
	pushing := make(chan struct{})
	go func() {
		defer close(pushing)
		last = st.pushWindows(first, math.MaxInt64, rec)
	}()
	segments, segLen := sliceOf(seconds)
	ends := make([]time.Time, segments)
	prevT, prevN, prevC := ph.mark.wall, ph.pushed, ph.mark.cpu
	for i := 0; i < segments; i++ {
		time.Sleep(time.Until(ph.mark.wall.Add(time.Duration(i+1) * segLen)))
		now, n, c := time.Now(), st.pushed.Load(), cpuNow()
		seg := segment{name: fmt.Sprint(i + 1), wall: now.Sub(prevT), items: n - prevN}
		if seg.items > 0 {
			seg.cpuNs = []float64{float64(c-prevC) / float64(seg.items)}
		}
		run.segs = append(run.segs, seg)
		ends[i] = now
		prevT, prevN, prevC = now, n, c
	}
	st.stop.Store(true)
	<-pushing
	if err := st.endPhase(run, ph, rec, sm); err != nil {
		return nil, err
	}
	run.digest = st.in.digest()

	// Every window 0..last-1 must have been emitted, each equal to its
	// cycle window's reference. Latency: OnWindow instant minus the instant
	// the window's last event was pushed, booked to the segment that push
	// fell in. The final window is closed by end-of-stream rather than by
	// data, so it is not a latency sample.
	refs := st.in.reference()
	run.expected = make(map[int64]winRef, last)
	at := st.col.emitted()
	seg := 0
	for w := int64(0); w < last; w++ {
		start := st.in.start(w).UnixNano()
		run.expected[start] = refs[w%int64(sp.cycle)]
		if w < first || w == last-1 {
			continue
		}
		for seg < segments-1 && st.pushedAt[w].After(ends[seg]) {
			seg++
		}
		sample := math.Inf(1)
		if t, ok := at[start]; ok {
			sample = ms(t.Sub(st.pushedAt[w]))
		}
		run.segs[seg].latency = append(run.segs[seg].latency, sample)
	}
	return run, nil
}
