// Package netsim models the WAN segments between edge-computing layers on
// simulated time, replacing the paper's tc-shaped testbed network (§V-A):
// per-link one-way propagation delay (their RTTs: 20/40/80 ms between
// adjacent layers), finite bandwidth (1 Gbps links) with FIFO serialization,
// seeded jitter and loss. The simulator's bus (internal/core) carries every
// record of a simulated tree over these links and counts the bytes the
// Fig. 7 bandwidth-saving measurements read.
//
// A Link is single-queue: message n+1 cannot start transmitting until
// message n has left the sender, so a saturated link builds queueing delay
// exactly like the paper's native execution does in Fig. 8.
package netsim

import (
	"time"

	"github.com/approxiot/approxiot/internal/vclock"
	"github.com/approxiot/approxiot/internal/xrand"
)

// Link is a simulated point-to-point WAN hop.
type Link struct {
	sim       *vclock.Sim
	delay     time.Duration // one-way propagation
	bandwidth float64       // bits per second; 0 = unlimited
	jitter    time.Duration // uniform ± on propagation
	loss      float64       // per-message drop probability
	fifo      bool          // ordered delivery: jitter varies delay, never order
	rng       *xrand.Rand   // drives jitter and loss

	busyUntil   time.Time
	lastArrival time.Time // high-water arrival instant for FIFO clamping
	msgsLost    int64
}

// LinkOption customizes a Link.
type LinkOption func(*Link)

// WithDelay sets the one-way propagation delay. The paper reports RTTs, so
// callers typically pass RTT/2.
func WithDelay(d time.Duration) LinkOption {
	return func(l *Link) {
		if d > 0 {
			l.delay = d
		}
	}
}

// WithRTT sets the propagation delay from a round-trip time.
func WithRTT(rtt time.Duration) LinkOption {
	return WithDelay(rtt / 2)
}

// WithBandwidth sets the link capacity in bits per second; 0 disables the
// serialization model (infinite capacity).
func WithBandwidth(bitsPerSecond float64) LinkOption {
	return func(l *Link) {
		if bitsPerSecond > 0 {
			l.bandwidth = bitsPerSecond
		}
	}
}

// WithJitter adds a seeded uniform ±j perturbation to the propagation delay
// of every message. Jittered messages may be delivered out of order, as on
// a real WAN.
func WithJitter(j time.Duration, seed uint64) LinkOption {
	return func(l *Link) {
		if j > 0 {
			l.jitter = j
			l.ensureRNG(seed)
		}
	}
}

// WithFIFO makes the link deliver messages in send order, like a TCP/Kafka
// transport: jitter still perturbs per-message latency, but a message's
// arrival is clamped to be no earlier than any message sent before it.
// Event-time pipelines require per-chain ordered delivery — a watermark
// overtaking the data it vouches for would orphan that data as late.
func WithFIFO() LinkOption {
	return func(l *Link) { l.fifo = true }
}

// WithLoss drops each message independently with probability p (seeded).
// Lost messages still consume wire time (they are transmitted, then lost),
// and are counted by MessagesLost.
func WithLoss(p float64, seed uint64) LinkOption {
	return func(l *Link) {
		if p > 0 {
			if p > 1 {
				p = 1
			}
			l.loss = p
			l.ensureRNG(seed)
		}
	}
}

func (l *Link) ensureRNG(seed uint64) {
	if l.rng == nil {
		l.rng = xrand.New(seed)
	}
}

// Gbps converts gigabits/second to bits/second for WithBandwidth.
func Gbps(g float64) float64 { return g * 1e9 }

// Mbps converts megabits/second to bits/second for WithBandwidth.
func Mbps(m float64) float64 { return m * 1e6 }

// NewLink returns a link driven by the given simulator. Defaults: zero
// delay, unlimited bandwidth.
func NewLink(sim *vclock.Sim, opts ...LinkOption) *Link {
	l := &Link{sim: sim}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Send transmits size bytes and schedules deliver at the arrival instant:
// queueing behind in-flight messages, then size·8/bandwidth of
// serialization, then the propagation delay. It returns the arrival time.
//
// Send must be called from within the simulation loop (it reads the
// simulated clock).
func (l *Link) Send(size int, deliver func()) time.Time {
	start := l.sim.Now()
	if l.busyUntil.After(start) {
		start = l.busyUntil // FIFO: wait for the wire to free up
	}
	var tx time.Duration
	if l.bandwidth > 0 {
		tx = time.Duration(float64(size) * 8 / l.bandwidth * float64(time.Second))
	}
	l.busyUntil = start.Add(tx)
	delay := l.delay
	if l.jitter > 0 {
		delay += time.Duration((l.rng.Float64()*2 - 1) * float64(l.jitter))
		if delay < 0 {
			delay = 0
		}
	}
	arrival := l.busyUntil.Add(delay)
	if l.fifo {
		if arrival.Before(l.lastArrival) {
			arrival = l.lastArrival
		}
		l.lastArrival = arrival
	}

	if l.loss > 0 && l.rng.Bernoulli(l.loss) {
		l.msgsLost++
		return arrival // transmitted, then lost: no delivery event
	}
	if deliver != nil {
		l.sim.At(arrival, deliver)
	}
	return arrival
}

// MessagesLost returns the number of messages dropped by the loss model.
func (l *Link) MessagesLost() int64 { return l.msgsLost }
