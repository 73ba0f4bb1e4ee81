// Package tcp is the network transport backend: a zero-dependency,
// length-prefixed binary protocol that runs the transport.Bus surface over
// TCP, so the tree's tiers can run as separate OS processes on separate
// machines — the deployment shape the paper's prototype obtained from
// Kafka.
//
// One broker daemon (Serve) hosts an in-memory transport.Mem backend, and
// any number of client processes (Dial) mount it as their own Bus. Every
// consumer-group semantic the in-memory broker implements (partition
// dealing, generation-fenced auto-commits, stale-owner fencing, rebalance on
// join/leave) is inherited, not re-implemented: the daemon holds a real
// *mq.Consumer per client handle, so the fencing happens where the offsets
// live, and the rebalance that hands a member a backlog wakes it from inside
// the daemon. Watermarks ride each record's frame bit-for-bit, which carries
// the event-time machinery — per-chain minimums, keepalives, the
// end-of-stream broadcast — across the wire unchanged.
//
// The framing follows the repo codec's append-style marshaling (uvarint
// lengths, little-endian fixints, appends into reusable scratch): every frame
// is [u32 little-endian frame length][frame]. A request frame is [op
// byte][operands]; a response frame is [status byte][optional error
// text][result]. Both sends share one frame — [topic][partition, opSendTo
// only][count][key value watermark]... — and one handler. Known mq sentinel
// errors cross the wire as dedicated status codes so errors.Is keeps working
// remotely.
//
// Consumers are pushed to, not polled for. A consumer's connection
// subscribes its handle once with a credit: the number of push frames the
// client can hold. The daemon then runs one push loop per handle that parks
// in the broker's own wake machinery, claims what the handle can fetch
// (committing at fetch, as an in-process poll does) and writes it as a push
// frame — [pushMark][flags][count][record]... — while credit lasts. The
// client reads pushes and responses off the one connection in order, lends
// polls out of the frames it holds, and grants freed frames back with
// opCredit, which gets no answer. Senders stay synchronous: a send returns
// once the daemon has appended it.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
)

// Protocol ops (request frame byte 0). The values are the wire: each is
// spelled out so that retiring an op never renumbers the ones after it, and
// a retired value gets the unknown-op answer: 3 was a one-record send, 7 a
// fetch, 15 a wait-for-ready long-poll and 16 a rebalance long-poll. An
// answer of "-" is the status alone.
//
//	op               operands                         answer
//	opCreateTopic    topic, partitions, retain        -
//	opTopicParts     topic                            partitions
//	opSendTo         topic, partition, records        -
//	opSendBatch      topic, records                   -
//	opOpenConsumer   topic, group ("" standalone)     handle
//	opMeta           handle                           flags, lag, assignment
//	opCommitted      handle, partition                offset
//	opSeek           handle, partition, offset        -
//	opCloseConsumer  handle [, rewinds]               -
//	opGroupLag       topic, group                     lag
//	opGroupCommitted topic, group                     offsets
//	opFetchAt        topic, partition, from, max      records
//	opSubscribe      handle, credit                   - (then pushes)
//	opCredit         handle, frames                   none: never answered
//	opUnsubscribe    handle                           - (after the last push)
//
// Answers about a subscribed handle — opMeta, opCommitted — leave after the
// push of every record their figures count as fetched, and opMeta first
// pushes what the handle can claim, credit allowing: its answer comes after
// every record the daemon could push when it was asked.
const (
	opCreateTopic    byte = 1
	opTopicParts     byte = 2
	opSendTo         byte = 4 // opSendBatch's frame with a partition after the topic
	opSendBatch      byte = 5
	opOpenConsumer   byte = 6
	opMeta           byte = 8
	opCommitted      byte = 9
	opSeek           byte = 10 // re-positions a reconnecting standalone consumer
	opCloseConsumer  byte = 11 // its rewinds hand back what the client never took
	opGroupLag       byte = 12
	opGroupCommitted byte = 13
	opFetchAt        byte = 14
	opSubscribe      byte = 17
	opCredit         byte = 18
	opUnsubscribe    byte = 19
)

// pushMark is byte 0 of a push frame; no response status takes its value.
const pushMark byte = 0x80

// flagTopicClosed (push and meta flags): the topic has been shut down. On a
// push it comes once, on the empty frame that ends the stream — after the
// last record the handle could claim.
const flagTopicClosed byte = 1

// Response status codes (response frame byte 0). Non-zero statuses carry an
// error message string; the sentinel codes additionally map back onto the
// mq errors so errors.Is works across the wire.
const (
	stOK byte = iota
	stErr
	stClosed
	stUnknownTopic
	stOutOfRange
	stNotSubscribed
	stTopicExists
	stNoPartitions
	stUnknownHandle
)

// errUnknownHandle reports an op against a consumer handle the server no
// longer has — the owning connection dropped (the server reaped it) or the
// handle was closed. Clients recover by re-opening.
var errUnknownHandle = errors.New("tcp: unknown consumer handle")

// maxFrame bounds a single frame. Push frames are bounded by maxPush records
// of modest payloads, so anything near this size is a corrupt length prefix,
// not a legitimate frame.
const maxFrame = 64 << 20

// statusOf maps an error to its wire status.
func statusOf(err error) byte {
	switch {
	case errors.Is(err, mq.ErrClosed):
		return stClosed
	case errors.Is(err, mq.ErrUnknownTopic):
		return stUnknownTopic
	case errors.Is(err, mq.ErrOutOfRange):
		return stOutOfRange
	case errors.Is(err, mq.ErrNotSubscribed):
		return stNotSubscribed
	case errors.Is(err, mq.ErrTopicExists):
		return stTopicExists
	case errors.Is(err, mq.ErrNoPartitions):
		return stNoPartitions
	case errors.Is(err, errUnknownHandle):
		return stUnknownHandle
	default:
		return stErr
	}
}

// errOf reconstructs an error from a wire status + message. The sentinel
// statuses wrap the matching mq error so errors.Is holds on the client side
// exactly as it would in-process.
func errOf(status byte, msg string) error {
	if msg == "" {
		msg = "remote error"
	}
	switch status {
	case stClosed:
		return fmt.Errorf("%w: %s", mq.ErrClosed, msg)
	case stUnknownTopic:
		return fmt.Errorf("%w: %s", mq.ErrUnknownTopic, msg)
	case stOutOfRange:
		return fmt.Errorf("%w: %s", mq.ErrOutOfRange, msg)
	case stNotSubscribed:
		return fmt.Errorf("%w: %s", mq.ErrNotSubscribed, msg)
	case stTopicExists:
		return fmt.Errorf("%w: %s", mq.ErrTopicExists, msg)
	case stNoPartitions:
		return fmt.Errorf("%w: %s", mq.ErrNoPartitions, msg)
	case stUnknownHandle:
		return fmt.Errorf("%w: %s", errUnknownHandle, msg)
	default:
		return fmt.Errorf("tcp: %s", msg)
	}
}

// ---- append-style encoders (the codec idiom: no intermediate buffers) ----

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendTime encodes an instant as a zero flag + unix nanoseconds. The flag
// exists because the zero time's UnixNano is not representable round-trip —
// and zero-ness is semantic (a zero watermark At is a keepalive).
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.LittleEndian.AppendUint64(dst, uint64(t.UnixNano()))
}

func appendWatermark(dst []byte, wm mq.Watermark) []byte {
	dst = appendStr(dst, wm.From)
	return appendTime(dst, wm.At)
}

// appendRecord encodes one full record (opFetchAt answers; a push frame
// gathers the same fields).
func appendRecord(dst []byte, r *mq.Record) []byte {
	dst = appendBytes(dst, r.Key)
	dst = appendBytes(dst, r.Value)
	dst = appendTime(dst, r.Ts)
	dst = appendWatermark(dst, r.Watermark)
	dst = binary.AppendUvarint(dst, uint64(r.Partition))
	dst = binary.AppendUvarint(dst, uint64(r.Offset))
	return dst
}

// ---- cursor-style decoder with a latched error ----

// wireReader walks a frame; the first malformed field latches err and every
// later read returns zero values, so call sites stay linear. A connection
// keeps one reader and resets it per frame, which carries from — the last
// watermark origin read — across frames.
type wireReader struct {
	buf  []byte
	off  int
	err  error
	from string
}

// reset points the reader at a new frame.
func (r *wireReader) reset(buf []byte) {
	r.buf, r.off, r.err = buf, 0, nil
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errors.New("tcp: truncated frame")
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// count reads an element count the frame's remaining bytes must be able to
// hold at each bytes per element. A count is wire input: it sizes loops and
// allocations, so one the frame cannot back is a malformed frame, not a
// request for memory.
func (r *wireReader) count(each int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off)/uint64(each) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// bytesVal returns a view into the frame — NOT a copy. Callers that keep
// the bytes past the frame's lifetime must copy (decodeRecords does, for
// FetchInto) or own the frame (handleSend parses its own clone; a consumer
// holds a push frame until the poll after the one that lent it).
func (r *wireReader) bytesVal() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) str() string { return string(r.bytesVal()) }

func (r *wireReader) timeVal() time.Time {
	flag := r.byteVal()
	if r.err != nil || flag == 0 {
		return time.Time{}
	}
	if r.off+8 > len(r.buf) {
		r.fail()
		return time.Time{}
	}
	n := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return time.Unix(0, int64(n))
}

// watermark decodes a piggybacked watermark. Consecutive records mostly
// share their origin, so the last one is kept and returned while the bytes
// match — the comparison converts without allocating; only a change of
// origin makes a string.
func (r *wireReader) watermark() mq.Watermark {
	if b := r.bytesVal(); string(b) != r.from {
		r.from = string(b)
	}
	return mq.Watermark{From: r.from, At: r.timeVal()}
}

// record decodes one record; Key/Value alias the frame buffer.
func (r *wireReader) record() mq.Record {
	var rec mq.Record
	rec.Key = r.bytesVal()
	rec.Value = r.bytesVal()
	rec.Ts = r.timeVal()
	rec.Watermark = r.watermark()
	rec.Partition = int(r.uvarint())
	rec.Offset = int64(r.uvarint())
	return rec
}

// ---- framing ----

// frameStart is the headroom a frame builder leaves in front of the frame:
// requests and responses are appended onto buf[:frameStart], sealFrame
// stores the length prefix into the headroom, and the whole buffer goes out
// in one Write — the frame is written where it was built.
const frameStart = 4

// sealFrame stores the length of the frame built after buf's headroom into
// the headroom and returns buf, ready for a single Write.
func sealFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-frameStart))
	return buf
}

// gatherMin is the length from which a Key or Value is written from where it
// lives instead of being copied into its frame.
const gatherMin = 256

// gather builds one outgoing frame for a gathered write (writev): the
// frame's own bytes — prefix, op or flags, lengths, short fields — are
// appended to hdr, and a Key or Value of gatherMin bytes or more is listed as
// a piece of its own, written straight from the memory it lives in, which
// must stay unchanged until the write returns.
type gather struct {
	hdr  []byte      // the frame's own bytes, frameStart bytes of headroom first
	iov  net.Buffers // the pieces listed so far
	out  net.Buffers // the write's cursor over iov (WriteTo consumes it)
	mark int         // where hdr's bytes not yet listed start
}

// reset starts a new frame: hdr holds the headroom, ready for appends.
func (g *gather) reset() {
	clear(g.iov)
	g.iov, g.mark = g.iov[:0], 0
	if cap(g.hdr) < minReadBuf {
		g.hdr = make([]byte, frameStart, minReadBuf)
	}
	g.hdr = g.hdr[:frameStart]
}

// bytes appends a length-prefixed field: copied in when short, listed as a
// piece of its own when long. The pieces already listed keep pointing at
// hdr's bytes even if an append moves hdr: those bytes do not change.
func (g *gather) bytes(b []byte) {
	g.hdr = binary.AppendUvarint(g.hdr, uint64(len(b)))
	if len(b) < gatherMin {
		g.hdr = append(g.hdr, b...)
		return
	}
	g.iov = append(g.iov, g.hdr[g.mark:len(g.hdr):len(g.hdr)], b)
	g.mark = len(g.hdr)
}

// writeTo seals the frame and writes it: one Write when nothing was listed,
// one writev otherwise. The frame's bytes are counted into sent before the
// write — a peer that has read them finds them counted — and a short write
// takes back what did not go out. It drops its hold on the listed pieces
// either way.
func (g *gather) writeTo(w io.Writer, sent *atomic.Int64) error {
	if len(g.iov) == 0 {
		frame := sealFrame(g.hdr)
		sent.Add(int64(len(frame)))
		n, err := w.Write(frame)
		sent.Add(int64(n - len(frame)))
		return err
	}
	g.iov = append(g.iov, g.hdr[g.mark:])
	total := 0
	for _, p := range g.iov {
		total += len(p)
	}
	binary.LittleEndian.PutUint32(g.iov[0], uint32(total-frameStart))
	sent.Add(int64(total))
	g.out = g.iov
	n, err := g.out.WriteTo(w)
	sent.Add(n - int64(total))
	clear(g.iov)
	g.iov = g.iov[:0]
	return err
}

// minReadBuf is the least a connection's read buffer holds: room for the
// length prefix and any control frame, so those arrive in one Read.
const minReadBuf = 512

// readFrame reads one frame through *buf — the connection's read buffer,
// kept across calls and grown to the largest frame seen — and returns it (a
// view into *buf, valid until the next call) plus the wire bytes consumed.
// One Read takes the length prefix and whatever of the frame has arrived
// with it; only a frame that outruns that Read costs a second. It serves the
// connections that are strictly request/response — admin and producers —
// where nothing may follow a frame before it is answered: bytes past its end
// are a protocol error, refused rather than dropped or taken for the next
// frame.
func readFrame(r io.Reader, buf *[]byte) ([]byte, int, error) {
	b := *buf
	if cap(b) < minReadBuf {
		b = make([]byte, minReadBuf)
		*buf = b
	}
	b = b[:cap(b)]
	got, err := io.ReadAtLeast(r, b, frameStart)
	if err != nil {
		return nil, got, err
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame {
		return nil, got, fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	end := frameStart + int(n)
	if got > end {
		return nil, got, fmt.Errorf("tcp: %d bytes follow a frame of %d before its answer", got-end, n)
	}
	if end > len(b) {
		b = append(make([]byte, 0, end), b[:got]...)[:end]
		*buf = b
	}
	if got < end {
		m, err := io.ReadFull(r, b[got:end])
		got += m
		if err != nil {
			return nil, got, err
		}
	}
	return b[frameStart:end], got, nil
}

// frameReader reads a stream of frames that may come back to back: a
// subscribed consumer's connection carries pushes between its answers, and
// the daemon reads a client's unanswered credit grants. Each frame is read
// into the buffer the caller names — a consumer's push ring puts every frame
// into a frame buffer of its own — and one Read takes the length prefix and
// whatever of the frame has arrived with it. Bytes that Read brings past the
// frame's end are the next frame's start: they are carried, copied once into
// the next frame's buffer, and the rest of a frame is read exactly.
type frameReader struct {
	r     io.Reader
	carry []byte // bytes read past the last frame, carry[lo:] not yet taken
	lo    int
}

// next reads the next frame into *dst, grown to fit, and returns it (a view
// into *dst) plus the wire bytes read from the stream. A length over
// maxFrame is refused before anything is grown for it.
func (fr *frameReader) next(dst *[]byte) ([]byte, int, error) {
	b := *dst
	if cap(b) < minReadBuf {
		b = make([]byte, minReadBuf)
		*dst = b
	}
	b = b[:cap(b)]
	wire := 0
	got := copy(b[:frameStart], fr.carry[fr.lo:])
	fr.lo += got
	if got < frameStart {
		// The carry is spent: one Read for the prefix and what follows it.
		m, err := io.ReadAtLeast(fr.r, b[got:], frameStart-got)
		got += m
		wire += m
		if err != nil {
			return nil, wire, err
		}
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame {
		return nil, wire, fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	end := frameStart + int(n)
	if got > end {
		// Only a Read overshoots, and only once the carry was spent.
		fr.carry, fr.lo = append(fr.carry[:0], b[end:got]...), 0
		got = end
	}
	if end > len(b) {
		b = append(make([]byte, 0, end), b[:got]...)[:end]
		*dst = b
	}
	c := copy(b[got:end], fr.carry[fr.lo:])
	fr.lo += c
	got += c
	if got < end {
		m, err := io.ReadFull(fr.r, b[got:end])
		wire += m
		if err != nil {
			return nil, wire, err
		}
	}
	if fr.lo == len(fr.carry) {
		fr.carry, fr.lo = fr.carry[:0], 0
	}
	return b[frameStart:end], wire, nil
}

// appendPush builds a push frame of recs into g: [pushMark][flags][count]
// and each record as appendRecord lays it out, Key and Value gathered.
func (g *gather) appendPush(flags byte, recs []mq.Record) {
	g.reset()
	g.hdr = append(g.hdr, pushMark, flags)
	g.hdr = appendUvarint(g.hdr, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		g.bytes(r.Key)
		g.bytes(r.Value)
		g.hdr = appendTime(g.hdr, r.Ts)
		g.hdr = appendWatermark(g.hdr, r.Watermark)
		g.hdr = appendUvarint(g.hdr, uint64(r.Partition))
		g.hdr = appendUvarint(g.hdr, uint64(r.Offset))
	}
}
