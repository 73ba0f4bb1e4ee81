package mq

import (
	"sync"
	"sync/atomic"
)

// The broker owns the bytes it keeps. An append copies each record's Key and
// Value into the partition's current segment, a block drawn from the broker's
// free list, so a producer's bytes are its own again the moment a send
// returns. A segment goes back to the free list once every record in it is
// below its partition's hold (see Topic.compact): nobody can read it again.
const (
	// segSize is a segment's capacity. A record larger than that gets a
	// segment of its own size, which the free list does not take back.
	segSize = 64 << 10
	// segRecords bounds the records of one segment, so records with few or
	// no bytes still seal segments — and compaction, which runs once per
	// sealed segment, keeps up with them.
	segRecords = 64
)

// segment is one block of a partition's stored bytes.
type segment struct {
	buf  []byte // the bytes stored so far
	n    int    // records stored
	next int64  // the offset past the last record stored
}

// fits reports whether a record of n bytes can go into s.
func (s *segment) fits(n int) bool {
	return s.n < segRecords && cap(s.buf)-len(s.buf) >= n
}

// store copies b into s and returns the stored view, capped so a reader's
// append can never run into the next record. An empty b stays as it was
// (nil stays nil), holding nothing of the caller's.
func (s *segment) store(b []byte) []byte {
	if len(b) == 0 {
		return b[:0:0]
	}
	at := len(s.buf)
	s.buf = append(s.buf, b...)
	return s.buf[at:len(s.buf):len(s.buf)]
}

// segPool is the broker-wide free list of segments, last in first out: the
// segment taken next is the one freed last, still warm in cache.
type segPool struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns an empty segment with room for a record of n bytes.
func (sp *segPool) get(n int) []byte {
	if n > segSize {
		return make([]byte, 0, n)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if k := len(sp.free); k > 0 {
		b := sp.free[k-1]
		sp.free[k-1] = nil
		sp.free = sp.free[:k-1]
		return b
	}
	return make([]byte, 0, segSize)
}

// put takes back freed segments; one sized for a single large record is left
// to the collector.
func (sp *segPool) put(bufs [][]byte) {
	poison := PoisonFreedSegments.Load()
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, b := range bufs {
		if cap(b) != segSize {
			continue
		}
		if poison {
			b = b[:cap(b)]
			for i := range b {
				b[i] = 0xA5
			}
		}
		sp.free = append(sp.free, b[:0])
	}
}

// PoisonFreedSegments, which only tests set, scribbles 0xA5 over every
// segment as it enters the free list: a reader still holding a view of a
// freed segment then reads garbage at once, not whenever an append happens
// to reuse the segment first.
var PoisonFreedSegments atomic.Bool
