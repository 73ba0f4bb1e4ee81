package netsim

import (
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/vclock"
)

var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

func TestPropagationDelayOnly(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithDelay(10*time.Millisecond))
	var arrived time.Time
	l.Send(1000, func() { arrived = sim.Now() })
	sim.Run()
	if want := epoch.Add(10 * time.Millisecond); !arrived.Equal(want) {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
}

func TestRTTHalved(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithRTT(20*time.Millisecond))
	at := l.Send(0, nil)
	if want := epoch.Add(10 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("arrival = %v, want one-way 10ms (%v)", at, want)
	}
}

func TestSerializationDelay(t *testing.T) {
	sim := vclock.NewSim(epoch)
	// 1 Mbps link: 1250 bytes = 10000 bits = 10 ms on the wire.
	l := NewLink(sim, WithBandwidth(Mbps(1)))
	at := l.Send(1250, nil)
	if want := epoch.Add(10 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestFIFOQueueingBuildsBacklog(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithBandwidth(Mbps(1))) // 10ms per 1250B message
	var arrivals []time.Time
	for i := 0; i < 3; i++ {
		l.Send(1250, func() { arrivals = append(arrivals, sim.Now()) })
	}
	// A fourth message sent now waits out the 30 ms the three ahead of it
	// hold the wire, then takes its own 10.
	if at := l.Send(1250, nil); !at.Equal(epoch.Add(40 * time.Millisecond)) {
		t.Fatalf("message behind a 30ms backlog arrives %v, want +40ms", at.Sub(epoch))
	}
	sim.Run()
	for i, want := range []time.Duration{10, 20, 30} {
		if !arrivals[i].Equal(epoch.Add(want * time.Millisecond)) {
			t.Fatalf("arrival %d = %v, want +%dms", i, arrivals[i], want)
		}
	}
}

func TestCombinedDelayAndBandwidth(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithDelay(40*time.Millisecond), WithBandwidth(Mbps(1)))
	at := l.Send(1250, nil)
	// 10 ms serialization + 40 ms propagation.
	if want := epoch.Add(50 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestUnlimitedBandwidthNoSerialization(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithDelay(time.Millisecond))
	a := l.Send(1<<30, nil)
	b := l.Send(1<<30, nil)
	if !a.Equal(b) {
		t.Fatalf("unlimited link serialized: %v vs %v", a, b)
	}
}

// TestBacklogDrainsOverTime: a message queues behind only what is left of
// the transmission ahead of it when it is sent — 6 ms of a 10 ms one sent
// 4 ms earlier — and behind nothing once the wire has gone idle.
func TestBacklogDrainsOverTime(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithBandwidth(Mbps(1)))
	l.Send(1250, nil) // 10ms of wire time
	var queued, idle time.Time
	sim.At(epoch.Add(4*time.Millisecond), func() { queued = l.Send(1250, nil) })
	sim.At(epoch.Add(30*time.Millisecond), func() { idle = l.Send(1250, nil) })
	sim.Run()
	if want := epoch.Add(20 * time.Millisecond); !queued.Equal(want) {
		t.Fatalf("message sent into a 6ms backlog arrives %v, want +20ms", queued.Sub(epoch))
	}
	if want := epoch.Add(40 * time.Millisecond); !idle.Equal(want) {
		t.Fatalf("message sent on an idle wire arrives %v, want +40ms", idle.Sub(epoch))
	}
}

// utilization is the fraction of the span from the first send to the last
// arrival that the wire spent transmitting n messages of tx each, read off
// the arrival instants of a link with no propagation delay.
func utilization(n int, tx time.Duration, arrivals []time.Time) float64 {
	return float64(time.Duration(n)*tx) / float64(arrivals[len(arrivals)-1].Sub(epoch))
}

func TestUtilizationSaturatedLink(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithBandwidth(Mbps(1)))
	// Offer 10 back-to-back messages at t=0: the wire is busy 100% of the
	// span from first send to the end of the last transmission.
	var arrivals []time.Time
	for i := 0; i < 10; i++ {
		arrivals = append(arrivals, l.Send(1250, nil))
	}
	sim.Run()
	if u := utilization(10, 10*time.Millisecond, arrivals); u < 0.99 {
		t.Fatalf("utilization = %g, want ~1.0", u)
	}
}

func TestUtilizationIdleLink(t *testing.T) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithBandwidth(Gbps(1)))
	// Two tiny sends 1 second apart: utilization should be ~0.
	arrivals := []time.Time{l.Send(125, nil)}
	sim.At(epoch.Add(time.Second), func() { arrivals = append(arrivals, l.Send(125, nil)) })
	sim.Run()
	if u := utilization(2, time.Microsecond, arrivals); u > 0.01 {
		t.Fatalf("utilization = %g, want ~0", u)
	}
}

// TestFIFOClampsJitteredArrivals: on a FIFO link jitter varies each
// message's delay but never its order — no arrival precedes one sent before
// it — while without FIFO the same jitter does reorder.
func TestFIFOClampsJitteredArrivals(t *testing.T) {
	reordered := func(fifo bool) bool {
		sim := vclock.NewSim(epoch)
		opts := []LinkOption{WithDelay(10 * time.Millisecond), WithJitter(5*time.Millisecond, 9)}
		if fifo {
			opts = append(opts, WithFIFO())
		}
		l := NewLink(sim, opts...)
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			sim.At(epoch.Add(time.Duration(i)*100*time.Microsecond), func() {
				l.Send(0, func() { order = append(order, i) })
			})
		}
		sim.Run()
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return true
			}
		}
		return false
	}
	if reordered(true) {
		t.Fatal("FIFO link delivered out of send order")
	}
	if !reordered(false) {
		t.Fatal("jitter never reordered a non-FIFO link: the FIFO check proves nothing")
	}
}

func TestGbpsMbpsHelpers(t *testing.T) {
	if Gbps(1) != 1e9 || Mbps(100) != 1e8 {
		t.Fatal("unit helpers wrong")
	}
}

func BenchmarkSend(b *testing.B) {
	sim := vclock.NewSim(epoch)
	l := NewLink(sim, WithDelay(10*time.Millisecond), WithBandwidth(Gbps(1)))
	for i := 0; i < b.N; i++ {
		l.Send(512, nil)
	}
}
