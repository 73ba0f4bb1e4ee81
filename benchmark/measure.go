package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuNow returns the process's user+system CPU time (RUSAGE_SELF). On a
// shared two-core box this, not wall-clock, is the primary cost number:
// a noisy neighbour stretches wall time but not the cycles this process ran.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// costMark is one reading of the process-wide cost counters.
type costMark struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// markCost reads the counters. ReadMemStats stops the world, so it is only
// called at phase boundaries, never inside a timed segment.
func markCost() costMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return costMark{wall: time.Now(), cpu: cpuNow(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// quantile returns the q-quantile of sorted (ascending) values by the
// nearest-rank rule; +Inf entries (results that never arrived) sort last.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median is the conventional median (mean of the middle pair), the one
// Python's statistics.median computes.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// barrier is a reusable rendezvous for the pusher goroutines: every source
// slot shares one event-time clock, so no pusher starts window w+1 before
// all have finished window w. The last arriver runs fn before release.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	round   int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.parties {
		if fn != nil {
			fn()
		}
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round := b.round; round == b.round; {
		b.cond.Wait()
	}
}

// envInfo records where a run happened; every output carries it.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Pushers    int    `json:"pushers"`
}

func readEnv() envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Pushers:    pushers,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
