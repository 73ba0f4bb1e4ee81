package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
)

// pacedState is one set-up of the open-loop workload.
type pacedState struct {
	harness
	in *pacedInput

	origin time.Time // due time of tick 0; aligned to an event-window start
	// lateMs[p][n] is how late pusher p started tick n, in ms.
	lateMs [pushers][]float64
	// tickDone, when set, makes the pushers meet after every tick and runs
	// once per tick: the unpaced capacity run's clock (see runUnpaced).
	tickDone func(n int)
	bar      *barrier
}

func newPacedState(sp spec, seed int64, seconds float64) *pacedState {
	st := &pacedState{in: genPaced(sp, seed, seconds)}
	st.sp = sp
	return st
}

func setupPaced(sp spec, seed int64, seconds float64, rec *recorder) (*pacedState, error) {
	st := newPacedState(sp, seed, seconds)
	return st, st.open(seed, rec)
}

// due is the scheduled emission instant of tick n. Event time IS the
// schedule: an item's timestamp is its due time minus its lateness, never
// the instant the generator actually got round to pushing it, so a stall
// shows up as result latency instead of silently shifting the windows.
func (st *pacedState) due(n int) time.Time {
	return st.origin.Add(time.Duration(n) * st.sp.tick)
}

// pusher emits every tick's batch for the slots it owns at the tick's due
// time. Open loop: the schedule never waits for the system; a late tick is
// emitted immediately and its lateness recorded.
func (st *pacedState) pusher(p int, rec *recorder) {
	in := st.in
	var scratch []stream.Item
	st.lateMs[p] = make([]float64, 0, in.totalTicks)
	for n := 0; n < in.totalTicks; n++ {
		due := st.due(n)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.lateMs[p] = append(st.lateMs[p], ms(time.Since(due)))
		for j := 0; j < slotsPerPusher; j++ {
			s := p*slotsPerPusher + j
			scratch = in.batch(scratch[:0], s, n, due, st.sp.tick)
			if len(scratch) > 0 {
				st.pushTo(s, scratch, rec)
			}
		}
		if st.tickDone != nil {
			st.bar.await(func() { st.tickDone(n) })
		}
	}
}

// scrape GETs /metrics once a second until stop closes, as an operator's
// Prometheus would; it returns each scrape's duration in ms.
func scrape(addr string, stop <-chan struct{}, rec *recorder) []float64 {
	var out []float64
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			h := rec.begin("ops.scrape")
			t0 := time.Now()
			resp, err := client.Get("http://" + addr + "/metrics")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body) // a failed read only shortens this scrape
				resp.Body.Close()
				out = append(out, ms(time.Since(t0)))
			}
			rec.end(h, 1)
		}
	}
}

// runPaced measures the open-loop workload: an untimed warm-up step, then
// the rate steps, each 0.3×seconds long. Each step is one segment.
func runPaced(sp spec, seed int64, seconds float64, rec *recorder) (*liveRun, error) {
	run := &liveRun{sp: sp}
	st, err := setUp(run, rec, func(r *recorder) (*pacedState, error) { return setupPaced(sp, seed, seconds, r) })
	if err != nil {
		return nil, err
	}
	in := st.in
	ns := time.Now().UnixNano()
	st.origin = time.Unix(0, ns-ns%int64(sp.window)+2*int64(sp.window))

	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int, r *recorder) {
			defer wg.Done()
			st.pusher(p, r)
		}(p, rec.fork())
	}
	var sm *sampler
	if rec != nil {
		sm = startSampler(st.sys)
	}
	stopScrape := make(chan struct{})
	scraped := make(chan []float64, 1)
	if addr := st.sys.opsAddr(); addr != "" {
		go func(r *recorder) { scraped <- scrape(addr, stopScrape, r) }(rec.fork())
	} else {
		scraped <- nil
	}

	// Walk the step boundaries on the schedule's own clock, sampling CPU
	// every quarter second inside each timed step.
	var ph phase
	ticksPerSample := int(250 * time.Millisecond / sp.tick)
	for _, step := range in.steps {
		time.Sleep(time.Until(st.due(step.firstTick)))
		if !step.timed {
			continue
		}
		if len(run.segs) == 0 {
			ph = st.beginPhase()
		}
		seg := segment{name: step.name, rate: step.rate, lagStart: st.sys.snapshot().IngestLag}
		t0, n0 := time.Now(), st.pushed.Load()
		prevN, prevC := n0, cpuNow()
		for tick := 0; tick < step.ticks; {
			tick = min(tick+ticksPerSample, step.ticks)
			time.Sleep(time.Until(st.due(step.firstTick + tick)))
			n, c := st.pushed.Load(), cpuNow()
			if n > prevN {
				seg.cpuNs = append(seg.cpuNs, float64(c-prevC)/float64(n-prevN))
			}
			prevN, prevC = n, c
		}
		seg.wall, seg.items = time.Since(t0), prevN-n0
		seg.lagEnd = st.sys.snapshot().IngestLag
		run.segs = append(run.segs, seg)
	}
	wg.Wait()
	close(stopScrape)
	run.scrapeMs = <-scraped
	if err := st.endPhase(run, ph, rec, sm); err != nil {
		return nil, err
	}
	run.digest = in.digest()

	// Reference and latency. Window w is [origin + w·W, origin + (w+1)·W);
	// its result latency is the OnWindow instant minus the window's end —
	// the due time of the last event that can contribute to it — so it
	// includes the fixed lateness and the sweep cadence, not the window
	// length. A window never emitted counts as over any limit.
	refs, tooLate := in.reference()
	run.tooLate = tooLate
	run.expected = make(map[int64]winRef, len(refs))
	at := st.col.emitted()
	for w, ref := range refs {
		start := st.origin.Add(time.Duration(w) * sp.window)
		run.expected[start.UnixNano()] = ref
		i := in.stepOf(w * in.ticksPerWindow)
		if !in.steps[i].timed {
			continue
		}
		sample := math.Inf(1)
		if t, ok := at[start.UnixNano()]; ok {
			sample = ms(t.Sub(start.Add(sp.window)))
		}
		seg := &run.segs[i-1] // steps[0] is the warm-up
		seg.latency = append(seg.latency, sample)
	}
	for i := range run.segs {
		step := in.steps[i+1]
		for p := range st.lateMs {
			run.segs[i].genLate = append(run.segs[i].genLate, st.lateMs[p][step.firstTick:step.firstTick+step.ticks]...)
		}
	}
	return run, nil
}

// runUnpaced replays the open-loop schedule as a closed loop and prints the
// rate the configuration absorbed at each step's batch shape — its capacity,
// the number issue 11 holds the frozen rates against (the top step must sit
// at or below half of it). Tick 0 is due a day ago, so no tick ever waits
// for the clock: only MaxIngestLag holds the pushers back, and a barrier
// after every tick keeps the two of them on one event-time clock. It is a
// calibration, not a measurement: it prints no result line.
func runUnpaced(w io.Writer, sp spec, seed int64, seconds float64) error {
	st, err := setupPaced(sp, seed, seconds, nil)
	if err != nil {
		return err
	}
	in := st.in
	ns := time.Now().Add(-24 * time.Hour).UnixNano()
	st.origin = time.Unix(0, ns-ns%int64(sp.window))

	type mark struct {
		at     time.Time
		pushed int64
		cpu    time.Duration
	}
	marks := []mark{{time.Now(), 0, cpuNow()}}
	step := 0
	st.bar = newBarrier(pushers)
	st.tickDone = func(n int) {
		if n+1 == in.steps[step].firstTick+in.steps[step].ticks {
			marks = append(marks, mark{time.Now(), st.pushed.Load(), cpuNow()})
			step++
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			st.pusher(p, nil)
		}(p)
	}
	wg.Wait()
	out, err := st.sys.finish()
	drained := time.Now()
	st.sys.release()
	if err == nil {
		err = st.err()
	}
	if err != nil {
		return err
	}
	_, tooLate := in.reference()
	fmt.Fprintf(w, "unpaced  %d items pushed, %d of %d windows emitted, %d late drops (%d emitted too late)\n",
		out.produced, len(out.windows), in.windows(), out.lateDropped, tooLate)
	for i, s := range in.steps {
		a, b := marks[i], marks[i+1]
		items, wall := float64(b.pushed-a.pushed), b.at.Sub(a.at).Seconds()
		capacity := items / wall
		fmt.Fprintf(w, "  %-5s offered %7d items/s  capacity %9.0f items/s  = %4.1f x offered  (%d items in %.3f s, cpu %.0f ns/item)\n",
			s.name, s.rate, capacity, capacity/float64(s.rate), int64(items), wall, float64(b.cpu-a.cpu)/items)
	}
	// The valves let MaxIngestLag records per leaf topic queue up, so the
	// last step's pushers finish ahead of the tree. Charging the whole drain
	// to the top step gives the rate to hold the frozen rates against.
	top, a, b := in.steps[len(in.steps)-1], marks[len(marks)-2], marks[len(marks)-1]
	capacity := float64(b.pushed-a.pushed) / drained.Sub(a.at).Seconds()
	fmt.Fprintf(w, "  %-5s drain included: capacity %9.0f items/s = %4.1f x offered (drain %.3f s)\n",
		top.name, capacity, capacity/float64(top.rate), drained.Sub(b.at).Seconds())
	return nil
}

// keptUp reports whether the system sustained a rate step: results stay
// inside the latency limit and the ingest backlog is not growing. The gate
// fails a run on it.
func keptUp(sp spec, seg *segment) bool {
	return seg.p90() <= ms(sp.latencyLimit) && seg.lagEnd-seg.lagStart <= int64(sp.maxLag)
}

// sustained additionally asks that the generator itself kept to its schedule
// (otherwise the offered rate was not the rate). That part is the
// benchmark's and the box's doing, so it is reported, not gated.
func sustained(sp spec, seg *segment) bool {
	return keptUp(sp, seg) && quantile(sortedCopy(seg.genLate), 0.99) < ms(sp.tick)
}
