// Package vclock provides the time abstraction of the ApproxIoT engine: one
// Clock per run, read by every component that needs the current instant.
//
// Two implementations are provided:
//
//   - WallClock: the runtime clock, which the live engine reads.
//   - Sim: a deterministic discrete-event scheduler. The simulator runs the
//     same engine on it, single-threaded: time only advances when the
//     simulation runs an event, so experiments that emulate minutes of WAN
//     traffic finish in milliseconds and are exactly reproducible.
//
// The engine (internal/core) and its member runtimes (internal/streams) read
// every instant from their Clock: the member contexts and pumps, the
// sweeper, session open and finalize, the valves' publish stamps and idle
// beats, the elastic verbs. Wall time remains only where a driven engine
// never goes:
//
//   - the real timers a live pump and the live sweeper park on (the instants
//     they wait for come from the Clock; a driven engine arms Sim events
//     instead);
//   - a valve's SourceRate pacing and its backpressure waits;
//   - the drain probe and its DrainTimeout deadline;
//   - the RootWork spin, which burns real CPU by design.
//
// Outside the engine, the mq producer stamps record timestamps from time.Now
// unless given mq.WithNow (the simulator's bus passes its Sim's Now), and
// the TCP transport, the ops exposition and the benchmark run on wall time.
package vclock

import "time"

// Clock is the time source shared by live and simulated modes.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
}

// WallClock implements Clock on the real runtime clock.
// The zero value is ready to use.
type WallClock struct{}

var _ Clock = WallClock{}

// Now returns time.Now().
func (WallClock) Now() time.Time { return time.Now() }
