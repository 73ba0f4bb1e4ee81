package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/approxiot/approxiot/internal/checkpoint"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/streams"
)

// This file is the member checkpoint codec: the serialized recovery state of
// one edge shard-group member, written by samplingProcessor.saveCheckpoint at
// punctuation or at the end of a poll cycle (where committed consumer offsets
// and ingested items coincide exactly — never mid-batch) and restored by a
// replacement member before it replays the offset gap from the broker's
// retained log.
//
// The blob is self-contained: consumer offsets for every owned partition, the
// member's lifetime counters, and the full Ψ state — the close bound, the
// watermark chains, and every open event window with its carried sub-stream
// weights and buffered weighted batches.
// Sampler RNG state is deliberately NOT serialized: a restarted member is a
// new member of the statistical population (the estimate stays unbiased by
// Eq. 8 weighting, which is what the invariant checks), exactly as a
// replacement Kafka Streams instance would re-seed its task state.

// ckptVersion is the blob format version; a mismatch is corruption (the
// store's job is integrity, the codec's job is meaning). Version 1 carried a
// mode byte and a second, single-interval layout.
const ckptVersion = 2

// memberCkpt is a decoded member checkpoint, ready to restore.
type memberCkpt struct {
	offsets  []streams.PartitionOffset
	stats    NodeStats
	bound    int64
	boundSet bool
	chains   []ckptChain
	windows  []ckptWindow
}

// ckptChain is one serialized watermark chain: the producing origin, the
// sub-stream, and the chain's low watermark (0 = still unheard; with no
// sub-stream, the producer's expectation placeholder). The arrival clock (seen) is NOT serialized — a restored
// chain is stamped with the restore instant, so a chain idle across the
// crash ages out on the survivor's schedule, not retroactively.
type ckptChain struct {
	from string
	src  stream.SourceID
	wm   int64 // unix nanos; 0 = zero time
}

// ckptWindow is one serialized open event window.
type ckptWindow struct {
	start   int64
	weights map[stream.SourceID]float64
	psi     []stream.Batch
}

// encodeMemberCheckpoint serializes the member's full recovery state onto
// dst. Runs on the member's pump goroutine (flush / Sync barrier), where the
// processor state is quiescent and offs reflects every ingested record.
func encodeMemberCheckpoint(dst []byte, p *samplingProcessor, offs []streams.PartitionOffset) []byte {
	dst = append(dst, ckptVersion)
	dst = binary.AppendUvarint(dst, uint64(len(offs)))
	for _, po := range offs {
		dst = binary.AppendUvarint(dst, uint64(po.Partition))
		dst = binary.AppendUvarint(dst, uint64(po.Offset))
	}
	st := p.stats()
	dst = binary.AppendUvarint(dst, uint64(st.Observed))
	dst = binary.AppendUvarint(dst, uint64(st.Emitted))
	dst = binary.AppendUvarint(dst, uint64(st.Intervals))
	ew, wt := p.ew, p.wt
	if ew.boundSet {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendVarint(dst, ew.bound)
	dst = binary.AppendUvarint(dst, uint64(wt.chains))
	wt.eachChain(func(from string, src stream.SourceID, m *sourceMark) {
		dst = appendCkptString(dst, from)
		dst = appendCkptString(dst, string(src))
		var wm int64
		if !m.wm.IsZero() {
			wm = m.wm.UnixNano()
		}
		dst = binary.AppendVarint(dst, wm)
	})
	dst = binary.AppendUvarint(dst, uint64(len(ew.open)))
	for start, n := range ew.open {
		dst = binary.AppendVarint(dst, start)
		dst = appendNodeSection(dst, n)
	}
	return dst
}

// appendNodeSection serializes one sampling node's interval state: the
// carried W^in per sub-stream, then the buffered Ψ batches (lineage order —
// addPair reconstructs the lineage index on restore).
func appendNodeSection(dst []byte, n *Node) []byte {
	set := 0
	for _, cw := range n.weights {
		if cw.set {
			set++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(set))
	for slot, cw := range n.weights {
		if cw.set {
			dst = appendCkptString(dst, string(n.strata.ID(int32(slot))))
			dst = binary.AppendUvarint(dst, math.Float64bits(cw.w))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.psi)))
	for _, b := range n.psi {
		dst = binary.AppendUvarint(dst, uint64(b.WireSize()))
		dst = b.AppendMarshal(dst)
	}
	return dst
}

func appendCkptString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// errCkptDecode wraps every decode failure in checkpoint.ErrCorrupt: a blob
// that passed the store's integrity check but does not parse is damaged
// state all the same, and restoring a half-read Ψ would silently break the
// count invariant the checkpoint exists to protect.
func errCkptDecode(what string) error {
	return fmt.Errorf("%w: checkpoint %s", checkpoint.ErrCorrupt, what)
}

// ckptReader is a cursor over a checkpoint blob; the first failure sticks.
type ckptReader struct {
	data []byte
	off  int
	err  error
}

func (r *ckptReader) fail(what string) {
	if r.err == nil {
		r.err = errCkptDecode(what)
	}
}

func (r *ckptReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated")
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *ckptReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *ckptReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining (each element costs ≥ 1 byte), so a corrupt length cannot drive
// a multi-gigabyte allocation before the truncation is discovered.
func (r *ckptReader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.data)-r.off) {
		r.fail("impossible count")
		return 0
	}
	return int(n)
}

func (r *ckptReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *ckptReader) batch() stream.Batch {
	n := r.uvarint()
	if r.err != nil {
		return stream.Batch{}
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("truncated batch")
		return stream.Batch{}
	}
	b, err := stream.UnmarshalBatch(r.data[r.off : r.off+int(n)])
	if err != nil {
		r.fail("bad batch payload")
		return stream.Batch{}
	}
	r.off += int(n)
	return b
}

func (r *ckptReader) nodeSection() (map[stream.SourceID]float64, []stream.Batch) {
	weights := make(map[stream.SourceID]float64)
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		src := stream.SourceID(r.str())
		w := math.Float64frombits(r.uvarint())
		if r.err == nil {
			weights[src] = w
		}
	}
	var psi []stream.Batch
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		b := r.batch()
		if r.err == nil {
			psi = append(psi, b)
		}
	}
	return weights, psi
}

// decodeMemberCheckpoint parses a checkpoint blob. Any malformation —
// truncation, a bad count, an undecodable batch — surfaces as
// checkpoint.ErrCorrupt so recovery refuses the blob instead of restoring
// partial state.
func decodeMemberCheckpoint(raw []byte) (*memberCkpt, error) {
	r := &ckptReader{data: raw}
	if v := r.u8(); r.err == nil && v != ckptVersion {
		return nil, errCkptDecode(fmt.Sprintf("version %d", v))
	}
	ck := &memberCkpt{}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		po := streams.PartitionOffset{
			Partition: int(r.uvarint()),
			Offset:    int64(r.uvarint()),
		}
		if r.err == nil {
			ck.offsets = append(ck.offsets, po)
		}
	}
	ck.stats = NodeStats{
		Observed:  int64(r.uvarint()),
		Emitted:   int64(r.uvarint()),
		Intervals: int64(r.uvarint()),
	}
	ck.boundSet = r.u8() != 0
	ck.bound = r.varint()
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		c := ckptChain{from: r.str(), src: stream.SourceID(r.str()), wm: r.varint()}
		if r.err == nil {
			ck.chains = append(ck.chains, c)
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		w := ckptWindow{start: r.varint()}
		w.weights, w.psi = r.nodeSection()
		if r.err == nil {
			ck.windows = append(ck.windows, w)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return ck, nil
}

// restoreState rebuilds a window node's interval state from a checkpoint's
// node section. Ψ batches are re-ingested through addPair so the lineage
// index is reconstructed, then the serialized weight map is applied on top
// (the carried W^in at checkpoint time wins over whatever the psi replay
// set).
func (n *Node) restoreState(weights map[stream.SourceID]float64, psi []stream.Batch) {
	for _, b := range psi {
		n.addPair(n.slot(b.Source), b.Source, b.Weight, b.Items)
	}
	for src, w := range weights {
		n.setWeight(n.slot(src), w)
	}
}

// restoreCheckpoint installs a decoded checkpoint into a freshly-built
// member processor, before its pump starts and before the offset-gap replay.
// now stamps every restored watermark chain's arrival clock: the crash span
// must not count against a chain's idle timeout retroactively.
func (p *samplingProcessor) restoreCheckpoint(ck *memberCkpt, now time.Time) {
	p.ew.bound = ck.bound
	p.ew.boundSet = ck.boundSet
	for _, w := range ck.windows {
		n := p.ew.newNode()
		n.restoreState(w.weights, w.psi)
		p.ew.open[w.start] = n
	}
	p.ew.obs.Store(ck.stats.Observed)
	p.ew.emit.Store(ck.stats.Emitted)
	p.ew.wins.Store(ck.stats.Intervals)
	// Rebuild the chains over whatever expectations Init registered: a
	// serialized chain (placeholder included) supersedes the static
	// expectation for the same origin. Placeholders go first, so a real chain
	// resolves its producer's placeholder whatever order the blob lists them.
	placeholder := func(c ckptChain) bool { return c.src == "" && c.wm == 0 }
	sort.SliceStable(ck.chains, func(i, j int) bool {
		return placeholder(ck.chains[i]) && !placeholder(ck.chains[j])
	})
	for _, c := range ck.chains {
		var wm time.Time
		if c.wm != 0 {
			wm = time.Unix(0, c.wm).UTC()
		}
		p.wt.restoreChain(c.from, c.src, wm, now)
	}
	p.pending.Store(int64(p.ew.buffered()))
}
