package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from outside the system, around the benchmark's own
// calls into each layer's public functions. They stay in memory and are
// written to one file when the run ends. A nil *recorder records nothing,
// which is how untraced runs share the drivers' code.

// span is one timed call: name, start, end, the span that caused it, the
// run it belongs to, and how many units of work (items, records, windows)
// the call carried.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// trace owns the span ids and every recorder of one benchmark invocation.
type trace struct {
	epoch  time.Time
	nextID atomic.Int32
	mu     sync.Mutex
	recs   []*recorder
}

func newTrace() *trace { return &trace{epoch: time.Now()} }

// recorder collects one goroutine's spans; it is not safe for concurrent
// use — fork gives another goroutine its own.
type recorder struct {
	tr     *trace
	run    string
	parent int32 // parent of this recorder's outermost spans
	open   []int // stack of indexes into spans
	spans  []span
}

// recorder returns a recorder for a new run (a span-id namespace label).
func (t *trace) recorder(run string) *recorder {
	r := &recorder{tr: t, run: run}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// fork returns a recorder for another goroutine whose outermost spans are
// children of r's innermost open span.
func (r *recorder) fork() *recorder {
	if r == nil {
		return nil
	}
	child := r.tr.recorder(r.run)
	child.parent = r.parent
	if n := len(r.open); n > 0 {
		child.parent = r.spans[r.open[n-1]].ID
	}
	return child
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := r.parent
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: r.tr.nextID.Add(1), Parent: parent, Name: name, Run: r.run,
		Start: int64(time.Since(r.tr.epoch)),
	})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span, recording the work it carried.
func (r *recorder) end(h int, count int64) {
	if r == nil {
		return
	}
	r.spans[h].End = int64(time.Since(r.tr.epoch))
	r.spans[h].Count = count
	r.open = r.open[:len(r.open)-1]
}

// all returns every recorded span. Call once recording goroutines stopped.
func (t *trace) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	return out
}

// layerTotal is one span name's aggregate within one run.
type layerTotal struct {
	calls  int64
	count  int64
	selfNs int64 // duration minus the part covered by child spans
	wallNs int64
}

// totals folds a run's spans by name. A layer's self time is its spans'
// duration minus their direct children's.
func totals(spans []span, run string) map[string]layerTotal {
	childNs := make(map[int32]int64)
	for _, s := range spans {
		if s.Run == run && s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTotal)
	for _, s := range spans {
		if s.Run != run {
			continue
		}
		t := out[s.Name]
		t.calls++
		t.count += s.Count
		t.wallNs += s.End - s.Start
		t.selfNs += s.End - s.Start - childNs[s.ID]
		out[s.Name] = t
	}
	return out
}

// per divides a layer's self time by its unit count.
func (t layerTotal) per() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.selfNs) / float64(t.count)
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
