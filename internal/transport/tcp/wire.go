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
// lengths, little-endian fixints, appends into reusable scratch): requests
// and responses are [u32 little-endian frame length][frame], where a
// request frame is [op byte][operands] and a response frame is [status
// byte][optional error text][result]. Both sends share one frame —
// [topic][partition, opSendTo only][count][key value watermark]... — and
// one handler. Known mq sentinel errors cross the wire as dedicated status
// codes so errors.Is keeps working remotely.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
)

// Protocol ops (request frame byte 0). The values are the wire: each is
// spelled out so that retiring an op never renumbers the ones after it, and
// a retired value (3 was a one-record send, 16 a rebalance long-poll) gets
// the unknown-op answer.
const (
	opCreateTopic    byte = 1
	opTopicParts     byte = 2
	opSendTo         byte = 4 // opSendBatch's frame with a partition after the topic
	opSendBatch      byte = 5
	opOpenConsumer   byte = 6
	opFetch          byte = 7
	opMeta           byte = 8
	opCommitted      byte = 9
	opSeek           byte = 10 // re-positions a reconnecting standalone consumer
	opCloseConsumer  byte = 11
	opGroupLag       byte = 12
	opGroupCommitted byte = 13
	opFetchAt        byte = 14
	opWaitReady      byte = 15
)

// Flag bits of a fetch, meta or wait-ready response.
const (
	// flagTopicClosed: the topic has been shut down.
	flagTopicClosed byte = 1 << iota
	// flagDrained (fetch): the poll came back short of its max and the
	// handle's consumer had no lag left — nothing more to fetch until the
	// daemon says otherwise. flagReady (wait-ready) is the daemon saying
	// otherwise: the handle's consumer has lag. One bit, two responses.
	flagDrained
	flagReady = flagDrained
)

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

// maxFrame bounds a single frame. Fetch batches are bounded by the poll max
// (hundreds of records of modest payloads), so anything near this size is a
// corrupt length prefix, not a legitimate frame.
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

// appendRecord encodes one full record (fetch responses).
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
// FetchInto) or own the frame (handleSend parses its own clone).
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

// minReadBuf is the least a connection's read buffer holds: room for the
// length prefix and any control frame, so those arrive in one Read.
const minReadBuf = 512

// readFrame reads one frame through *buf — the connection's read buffer,
// kept across calls and grown to the largest frame seen — and returns it (a
// view into *buf, valid until the next call) plus the wire bytes consumed.
// One Read takes the length prefix and whatever of the frame has arrived
// with it; only a frame that outruns that Read costs a second. The protocol
// is strictly request/response per connection, so nothing may follow a frame
// before it is answered: bytes past its end are a protocol error, refused
// rather than dropped or taken for the next frame.
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
