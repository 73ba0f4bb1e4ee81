package core

import (
	"math/bits"

	"github.com/approxiot/approxiot/internal/stream"
)

// Ψ item storage. A node buffers every item of an interval in per-lineage
// slices; allocating those fresh per window (and re-growing them by append)
// made zeroing new heap the largest single cost of a census hop. A slabStore
// instead keeps the slices of closed, fully-forwarded windows and hands them
// to the windows that open next.
//
// Ownership: one store per Ψ owner — an eventWindows (shared by its
// per-window nodes) or a standalone Node — used only by the goroutine,
// or under the lock, that already serializes that owner, so it needs no
// synchronization of its own. A slab belongs to exactly one lineage from
// get until the window it served has been closed AND its Θ is dead (encoded
// into the flush's block on an edge tier, queried at the root); only then
// is it put back. While a lineage owns a slab, the decoder is the only writer
// of its tail: Node.reserve hands out the next slots and stream.Header.Decode
// (or the copy in addPair) fills every one before anything reads the pair;
// the wire block the items come from is only read, and stays with the
// broker. Entries beyond a slab's length are stale items of earlier windows
// and are never cleared: nothing reads past len, and what they pin — a
// sub-stream name the owner keeps decoding under anyway (its stratum table
// holds it) and, for items copied in rather than decoded, a shared time
// zone — outlives the slab regardless.
//
// Slabs come in power-of-two capacities so that a request is served by
// needed length, never by whichever slab happened to come back first: the
// same window shape draws the same classes every time, which keeps both the
// steady state (no item storage allocated at all) and the allocation count
// of a run repeatable.
const (
	slabMinShift = 3  // smallest class: 8 items
	slabClasses  = 18 // largest class: 8 << 17 = 1 Mi items
	// slabRetainItems bounds the capacity a store may hold idle, in items
	// (56 B each, so 14 MiB). The free list only ever holds storage its
	// owner had in use at once, so the bound matters for bursts: one huge
	// window must not stay resident forever. Beyond it slabs go to the GC.
	slabRetainItems = 1 << 18
)

type slabStore struct {
	free     [slabClasses][][]stream.Item
	retained int // Σ cap over free
}

// slabClassFor returns the smallest class whose capacity holds n items.
func slabClassFor(n int) int {
	if n <= 1<<slabMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - slabMinShift
}

// get returns an empty slice with capacity for at least n items, recycled
// when the store holds one of the right class. A nil store (a node nobody
// recycles for) and a request beyond the largest class allocate.
func (s *slabStore) get(n int) []stream.Item {
	c := slabClassFor(n)
	if c >= slabClasses {
		return make([]stream.Item, 0, n)
	}
	if s != nil {
		if l := s.free[c]; len(l) > 0 {
			slab := l[len(l)-1]
			l[len(l)-1] = nil
			s.free[c] = l[:len(l)-1]
			s.retained -= cap(slab)
			return slab
		}
	}
	return make([]stream.Item, 0, 1<<(slabMinShift+c))
}

// put returns a slab nobody reads any more, filed under the largest class
// its capacity covers. Slabs beyond the largest class and over the
// retention bound are dropped.
func (s *slabStore) put(slab []stream.Item) {
	c := bits.Len(uint(cap(slab))) - 1 - slabMinShift
	if s == nil || c < 0 || c >= slabClasses || s.retained+cap(slab) > slabRetainItems {
		return
	}
	s.free[c] = append(s.free[c], slab[:0])
	s.retained += cap(slab)
}
