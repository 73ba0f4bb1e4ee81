package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Sim is a deterministic discrete-event scheduler. Events are executed in
// (time, sequence) order; ties on time break by scheduling order, which makes
// every simulated experiment exactly reproducible.
//
// Sim is safe for concurrent scheduling, but Run/Step must be driven from a
// single goroutine. In ApproxIoT's simulated mode the entire engine executes
// inside the event loop, so callbacks themselves run single-threaded.
type Sim struct {
	mu    sync.Mutex
	now   time.Time
	seq   uint64
	queue eventQueue
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulator whose clock starts at start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current simulated instant.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// At schedules fn at instant t and returns a handle that can cancel it.
// Scheduling in the past clamps to Now: fn is never dropped.
func (s *Sim) At(t time.Time, fn func()) *Timer {
	if fn == nil {
		panic("vclock: nil callback")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Before(s.now) {
		t = s.now
	}
	ev := &Timer{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return ev
}

// After schedules fn at Now+d.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	base := s.now
	s.mu.Unlock()
	return s.At(base.Add(d), fn)
}

// Step executes the single earliest pending event, advancing the clock to its
// timestamp. It reports false when no events are pending.
func (s *Sim) Step() bool {
	for {
		s.mu.Lock()
		if s.queue.Len() == 0 {
			s.mu.Unlock()
			return false
		}
		ev := heap.Pop(&s.queue).(*Timer)
		if ev.cancelled {
			s.mu.Unlock()
			continue
		}
		s.now = ev.at
		s.mu.Unlock()
		ev.fn()
		return true
	}
}

// Run executes events until the queue drains. It returns the number of
// events executed. Callbacks may schedule further events.
func (s *Sim) Run() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// String describes the simulator state, mainly for test failure messages.
func (s *Sim) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("sim(now=%s pending=%d)", s.now.Format(time.RFC3339Nano), s.queue.Len())
}

// Timer is one scheduled callback: an event of the queue, and the handle At
// and After return.
type Timer struct {
	at        time.Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

// Stop cancels the callback if it has not fired yet and reports whether it
// was cancelled before firing. Like Run and Step, it belongs to the goroutine
// driving the simulation.
func (t *Timer) Stop() bool {
	// Cancellation is lazy: the event stays in the heap and is skipped when
	// popped. index == -1 means it already fired.
	if t.cancelled || t.index == -1 {
		return false
	}
	t.cancelled = true
	return true
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*Timer

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Timer)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
