package netsim

import (
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/vclock"
)

func TestJitterPerturbsWithinBounds(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithDelay(50*time.Millisecond), WithJitter(10*time.Millisecond, 1))
	sawDifferent := false
	var prev time.Time
	for i := 0; i < 200; i++ {
		at := l.Send(0, nil)
		d := at.Sub(sim.Now())
		if d < 40*time.Millisecond || d > 60*time.Millisecond {
			t.Fatalf("jittered delay %v outside 50ms ± 10ms", d)
		}
		if i > 0 && !at.Equal(prev) {
			sawDifferent = true
		}
		prev = at
	}
	if !sawDifferent {
		t.Fatal("jitter produced identical delays for 200 messages")
	}
}

func TestJitterNeverNegative(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithDelay(time.Millisecond), WithJitter(10*time.Millisecond, 2))
	for i := 0; i < 500; i++ {
		at := l.Send(0, nil)
		if at.Before(sim.Now()) {
			t.Fatalf("message arrived before it was sent: %v", at)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func() []time.Time {
		sim := vclock.NewSim(epoch)
		l := NewLink(sim, WithDelay(time.Millisecond), WithJitter(time.Millisecond, 42))
		var out []time.Time
		for i := 0; i < 50; i++ {
			out = append(out, l.Send(0, nil))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different jitter")
		}
	}
}

func TestLossDropsRoughlyAtRate(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithLoss(0.2, 7))
	delivered := 0
	const n = 5000
	for i := 0; i < n; i++ {
		l.Send(10, func() { delivered++ })
	}
	sim.Run()
	lost := n - delivered
	if int64(lost) != l.MessagesLost() {
		t.Fatalf("lost %d but MessagesLost = %d", lost, l.MessagesLost())
	}
	rate := float64(lost) / n
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("loss rate = %.3f, want ~0.2", rate)
	}
}

func TestLossStillConsumesWireTime(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithBandwidth(Mbps(1)), WithLoss(1, 3))    // lose everything
	l.Send(1250, func() { t.Fatal("a certain loss delivered") }) // 10ms of wire
	if at := l.Send(1250, nil); !at.Equal(epoch.Add(20 * time.Millisecond)) {
		t.Fatalf("lost message freed the wire: the next arrives %v, want +20ms", at.Sub(epoch))
	}
	if l.MessagesLost() != 2 {
		t.Fatalf("MessagesLost = %d, want 2", l.MessagesLost())
	}
	sim.Run()
}

func TestLossZeroAndClamped(t *testing.T) {
	sim := vclock.NewSim(epoch)
	ok := 0
	l := NewLink(sim, WithLoss(0, 1)) // 0 = option ignored
	l.Send(1, func() { ok++ })
	sim.Run()
	if ok != 1 {
		t.Fatal("zero loss dropped a message")
	}
	l2 := NewLink(sim, WithLoss(5, 1)) // clamp to 1
	got := 0
	l2.Send(1, func() { got++ })
	sim.Run()
	if got != 0 {
		t.Fatal("loss > 1 not clamped to certain drop")
	}
}
