package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC) // ICDCS'18 day one

func TestSimStartsAtGivenInstant(t *testing.T) {
	s := NewSim(epoch)
	if got := s.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
}

func TestSimExecutesInTimestampOrder(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run() executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimTieBreaksByScheduleOrder(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", order)
		}
	}
}

func TestSimClockAdvancesToEventTime(t *testing.T) {
	s := NewSim(epoch)
	var at time.Time
	s.After(42*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if want := epoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback saw now=%v, want %v", at, want)
	}
}

func TestSimPastEventClampsToNow(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	s.At(epoch.Add(-time.Second), func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
	if !s.Now().Equal(epoch) {
		t.Fatalf("clock moved backwards to %v", s.Now())
	}
}

func TestSimCascadingEvents(t *testing.T) {
	s := NewSim(epoch)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(time.Millisecond, recurse)
	s.Run()
	if depth != 10 {
		t.Fatalf("cascade depth = %d, want 10", depth)
	}
	if want := epoch.Add(10 * time.Millisecond); !s.Now().Equal(want) {
		t.Fatalf("now = %v, want %v", s.Now(), want)
	}
}

// TestSimStepLeavesLaterEventsQueued: Step runs the earliest event alone,
// moving the clock to it; a later one stays queued until a further Step, and
// an empty queue steps nothing.
func TestSimStepLeavesLaterEventsQueued(t *testing.T) {
	s := NewSim(epoch)
	var fired []string
	s.After(100*time.Millisecond, func() { fired = append(fired, "late") })
	s.After(10*time.Millisecond, func() { fired = append(fired, "early") })
	if !s.Step() || len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("first Step fired %v, want only early", fired)
	}
	if want := epoch.Add(10 * time.Millisecond); !s.Now().Equal(want) {
		t.Fatalf("now = %v, want %v", s.Now(), want)
	}
	if !s.Step() || len(fired) != 2 {
		t.Fatalf("late event lost: fired=%v", fired)
	}
	if s.Step() {
		t.Fatal("Step on an empty queue reported an event")
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSimStopAfterFire(t *testing.T) {
	s := NewSim(epoch)
	tm := s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after the event fired")
	}
}

func TestSimConcurrentScheduling(t *testing.T) {
	s := NewSim(epoch)
	var count atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				s.After(time.Duration(i)*time.Microsecond, func() { count.Add(1) })
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if n := s.Run(); n != 800 {
		t.Fatalf("Run() = %d, want 800", n)
	}
	if count.Load() != 800 {
		t.Fatalf("count = %d, want 800", count.Load())
	}
}
