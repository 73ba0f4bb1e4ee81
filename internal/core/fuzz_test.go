package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
)

// allocated runs fn and returns the heap bytes allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzSlack is what a measurement may read beyond the decode's own bytes: the
// process-wide counter also sees the fuzz worker's goroutines.
const fuzzSlack = 64 << 10

// ckptBytesPerByte bounds what decoding a checkpoint costs per blob byte. The
// costliest byte is a window's: three bytes (start, two empty counts) buy a
// ckptWindow and its weight map's header, about 100 B with append's growth.
const ckptBytesPerByte = 64

// genuineCheckpoint is the blob of a member that has closed two windows and
// buffers a third, tracks three chains and an unheard producer, and owns two
// partitions.
func genuineCheckpoint() []byte {
	p, _ := hopMember(1)
	for w := 0; w < 3; w++ {
		if err := p.ProcessBatch(hopMessages(hopBatchesOf(w, 8))); err != nil {
			panic(err)
		}
	}
	p.wt.expect("edge#9", simEpoch)
	offs := []streams.PartitionOffset{{Partition: 0, Offset: 12}, {Partition: 3, Offset: 7}}
	return encodeMemberCheckpoint(nil, p, offs)
}

// ckptState renders a decoded checkpoint with its maps in a fixed order, so
// two encodings of one state compare equal whatever order the encoder walked
// its maps in.
func ckptState(ck *memberCkpt) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "offsets %v stats %+v bound %d/%v\n", ck.offsets, ck.stats, ck.bound, ck.boundSet)
	chains := make([]string, 0, len(ck.chains))
	for _, c := range ck.chains {
		chains = append(chains, fmt.Sprintf("chain %q %q %d\n", c.from, c.src, c.wm))
	}
	slices.Sort(chains)
	for _, c := range chains {
		b.WriteString(c)
	}
	windows := slices.Clone(ck.windows)
	slices.SortFunc(windows, func(x, y ckptWindow) int { return cmp.Compare(x.start, y.start) })
	for _, w := range windows {
		fmt.Fprintf(&b, "window %d\n", w.start)
		srcs := make([]stream.SourceID, 0, len(w.weights))
		for src := range w.weights {
			srcs = append(srcs, src)
		}
		slices.Sort(srcs)
		for _, src := range srcs {
			fmt.Fprintf(&b, "  weight %q %x\n", src, math.Float64bits(w.weights[src]))
		}
		for _, batch := range w.psi {
			fmt.Fprintf(&b, "  batch %x\n", batch.Marshal())
		}
	}
	return b.String()
}

// fuzzSeed reads one seed of a fuzz target's corpus under testdata/fuzz: a
// "go test fuzz v1" file holding a single []byte value.
func fuzzSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatalf("fuzz seed: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || len(lines) != 2 {
		t.Fatalf("fuzz seed %s/%s is not one []byte value", target, name)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("fuzz seed %s/%s: %v", target, name, err)
	}
	return []byte(v)
}

// restoredBlob restores ck into a fresh member and encodes that member again.
func restoredBlob(ck *memberCkpt) []byte {
	p, _ := hopMember(1)
	p.restoreCheckpoint(ck, simEpoch)
	return encodeMemberCheckpoint(nil, p, ck.offsets)
}

// FuzzMemberCheckpoint feeds arbitrary bytes to the checkpoint decoder. A
// blob decodes to an error or to a state a member restores, and that member's
// own checkpoint decodes again to the same state — what recovery rests on —
// and no decode allocates more than a multiple of the blob's size.
func FuzzMemberCheckpoint(f *testing.F) {
	good := genuineCheckpoint()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{ckptVersion})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}) // the retired two-mode format
	f.Add([]byte{ckptVersion, 0, 0, 0, 0, 1, 2, 1, 2, 'x', 0, 0, 1, 4, 0, 0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		var ck *memberCkpt
		var err error
		cost := allocated(func() { ck, err = decodeMemberCheckpoint(blob) })
		if limit := uint64(ckptBytesPerByte*len(blob) + fuzzSlack); cost > limit {
			t.Fatalf("decoding a %d-byte blob allocated %d bytes (limit %d)", len(blob), cost, limit)
		}
		if err != nil {
			return
		}
		again, err := decodeMemberCheckpoint(restoredBlob(ck))
		if err != nil {
			t.Fatalf("a restored member's checkpoint does not decode: %v", err)
		}
		if again.bound != ck.bound || again.boundSet != ck.boundSet || again.stats != ck.stats ||
			!slices.Equal(again.offsets, ck.offsets) {
			t.Fatalf("restore changed the blob's cut:\n%s\nvs\n%s", ckptState(again), ckptState(ck))
		}
		once, err := decodeMemberCheckpoint(restoredBlob(again))
		if err != nil {
			t.Fatalf("second round: %v", err)
		}
		if a, b := ckptState(once), ckptState(again); a != b {
			t.Fatalf("state does not round-trip through the encoder:\n%s\nvs\n%s", a, b)
		}
	})
}

// FuzzControlRecord feeds arbitrary bytes to the control-record decoder: an
// error, or a record whose re-encoding is the input — never a fraction
// outside (0, 1], and never an allocation.
func FuzzControlRecord(f *testing.F) {
	f.Add(encodeControl(7, 0.25))
	f.Add(encodeControl(1<<63, 1))
	f.Add(nodeDoneMarker)
	f.Add(encodeControl(1, math.NaN()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		var seq uint64
		var frac float64
		var err error
		if cost := allocated(func() { seq, frac, err = decodeControl(rec) }); cost > fuzzSlack {
			t.Fatalf("decoding a %d-byte record allocated %d bytes", len(rec), cost)
		}
		if err != nil {
			return
		}
		if !(frac > 0 && frac <= 1) {
			t.Fatalf("decoded fraction %v", frac)
		}
		if !bytes.Equal(encodeControl(seq, frac), rec) {
			t.Fatalf("record % x re-encodes as % x", rec, encodeControl(seq, frac))
		}
	})
}
