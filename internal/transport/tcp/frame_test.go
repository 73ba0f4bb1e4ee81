package tcp

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

// Both ends of the wire alias the frames they parse — the daemon's send
// hands the broker views into the request, a lending poll's records point
// into the push frame — so the parsers are held to: an error, or fields that
// lie inside the frame; never a panic; never memory the frame's own bytes do
// not pay for.

// fetchResponse builds a fetch response frame (status, flags, records) for n
// records of valueLen-byte values, origins cycling through froms.
func fetchResponse(n, valueLen int, froms ...string) []byte {
	resp := []byte{stOK, 0}
	resp = appendUvarint(resp, uint64(n))
	at := time.Unix(1723000000, 0)
	for i := 0; i < n; i++ {
		resp = appendRecord(resp, &mq.Record{
			Key:       []byte{'k', byte(i)},
			Value:     bytes.Repeat([]byte{byte(i)}, valueLen),
			Ts:        at,
			Watermark: mq.Watermark{From: froms[i%len(froms)], At: at.Add(time.Duration(i))},
			Partition: i % 4,
			Offset:    int64(i),
		})
	}
	return resp
}

// A lending fetch decode allocates nothing: the records point into the frame
// and the watermark origin is the one string the connection's reader already
// holds (at the parent commit every record made its own). A change of origin
// costs one string.
func TestLendingFetchDecodeAllocatesNothing(t *testing.T) {
	var rd wireReader
	scratch := make([]mq.Record, 0, 64)
	decode := func(frame []byte) {
		if err := parseResp(&rd, frame); err != nil {
			t.Fatal(err)
		}
		rd.byteVal() // flags
		recs, err := decodeRecords(&rd, scratch[:0], true)
		if err != nil || len(recs) != 64 {
			t.Fatalf("decoded %d records, %v", len(recs), err)
		}
		if recs[63].Watermark.From != "edge1-3" || recs[63].Value[0] != 63 {
			t.Fatalf("record 63 = %+v", recs[63])
		}
	}
	one := fetchResponse(64, 96, "edge1-3")
	if allocs := testing.AllocsPerRun(50, func() { decode(one) }); allocs != 0 {
		t.Fatalf("a 64-record lending fetch decode allocates %.0f times, want 0", allocs)
	}
	two := fetchResponse(64, 96, "edge1-2", "edge1-3")
	if allocs := testing.AllocsPerRun(50, func() { decode(two) }); allocs != 64 {
		t.Fatalf("64 records of alternating origin allocate %.0f times, want one string each", allocs)
	}
}

// inside reports whether view lies within frame's backing bytes.
func inside(frame, view []byte) bool {
	if len(view) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return p >= lo && p+uintptr(len(view)) <= lo+uintptr(len(frame))
}

// allocated runs fn and returns the heap bytes allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// recordBytes bounds what decoding costs per frame byte: a record is at
// least minRecordBytes on the wire and one mq.Record in the caller's slice,
// which append may have grown to a little over twice what it holds.
const recordBytes = 3 * int(unsafe.Sizeof(mq.Record{})) / minRecordBytes

// slack is what a measurement may read beyond the decode's own bytes: the
// process-wide counter also sees the fuzz worker's goroutines.
const slack = 64 << 10

// FuzzFetchResponse feeds arbitrary bytes to the client's record decoding,
// read both with a flags byte ahead of the records (as a push carries them)
// and as a FetchInto answer (status, records), lending and owning.
func FuzzFetchResponse(f *testing.F) {
	f.Add(fetchResponse(3, 40, "leaf-1", "leaf-2"))
	f.Add(fetchResponse(0, 0, ""))
	f.Add(appendErr(nil, mq.ErrClosed))
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, flagged := range []bool{true, false} {
			var rd wireReader
			if err := parseResp(&rd, frame); err != nil {
				return
			}
			if flagged {
				rd.byteVal()
			}
			at := rd
			var lent, owned []mq.Record
			var lendErr, ownErr error
			cost := allocated(func() { lent, lendErr = decodeRecords(&rd, nil, true) })
			rd = at
			cost += allocated(func() { owned, ownErr = decodeRecords(&rd, nil, false) })
			if limit := uint64(2*recordBytes*len(frame) + len(frame) + slack); cost > limit {
				t.Fatalf("decoding a %d-byte frame allocated %d bytes (limit %d)", len(frame), cost, limit)
			}
			if (lendErr == nil) != (ownErr == nil) || len(lent) != len(owned) {
				t.Fatalf("lending decode: %d records, %v; owning decode: %d records, %v", len(lent), lendErr, len(owned), ownErr)
			}
			if lendErr != nil {
				if len(lent) != 0 {
					t.Fatalf("%d records alongside %v", len(lent), lendErr)
				}
				continue
			}
			if len(lent) > len(frame)/minRecordBytes {
				t.Fatalf("%d records from %d bytes", len(lent), len(frame))
			}
			for i := range lent {
				l, o := lent[i], owned[i]
				if !inside(frame, l.Key) || !inside(frame, l.Value) {
					t.Fatalf("lent record %d points outside its frame", i)
				}
				if cap(l.Key) != len(l.Key) || cap(l.Value) != len(l.Value) {
					t.Fatalf("lent record %d can be appended into its neighbour", i)
				}
				if len(o.Key) > 0 && inside(frame, o.Key) || len(o.Value) > 0 && inside(frame, o.Value) {
					t.Fatalf("owned record %d points into the frame", i)
				}
				if !bytes.Equal(l.Key, o.Key) || !bytes.Equal(l.Value, o.Value) || l.Watermark != o.Watermark ||
					!l.Ts.Equal(o.Ts) || l.Partition != o.Partition || l.Offset != o.Offset {
					t.Fatalf("record %d: lent %+v, owned %+v", i, l, o)
				}
			}
		}
	})
}

// dispatchFixture is a daemon's dispatch state over a fresh in-memory bus,
// without a listener: topic "t" (2 partitions, 3 records), a standalone
// consumer under handle 1 and a member of group "g" under handle 2 — opened
// through dispatch itself — on a connection that discards what is written to
// it. The server's context is already cancelled, so a push loop a
// subscription starts ends at once.
func dispatchFixture(t testing.TB) (*Server, *connState) {
	broker := mq.NewBroker()
	t.Cleanup(broker.Close)
	s := newServer(transport.WrapBroker(broker))
	s.cancel()
	cs := s.newConnState(discardConn{})
	ok := func(req []byte) {
		if resp := s.dispatch(cs, req, nil); len(resp) == 0 || resp[0] != stOK {
			t.Fatalf("fixture request % x answered % x", req, resp)
		}
	}
	ok(appendUvarint(appendUvarint(appendStr([]byte{opCreateTopic}, "t"), 2), 0))
	ok(sendBatchRequest("t", 3, 24))
	ok(appendStr(appendStr([]byte{opOpenConsumer}, "t"), ""))
	ok(appendStr(appendStr([]byte{opOpenConsumer}, "t"), "g"))
	return s, cs
}

// discardConn is a connection that takes every write and never has anything
// to read.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// A retained partition allocates its log for 2 × retain records in one piece,
// so the daemon refuses a retention past maxRetain: a few small sends must
// not make it allocate whatever a create-topic frame names.
func TestCreateTopicRetentionIsBounded(t *testing.T) {
	s, cs := dispatchFixture(t)
	create := func(name string, retain uint64) byte {
		return s.dispatch(cs, appendUvarint(appendUvarint(appendStr([]byte{opCreateTopic}, name), 1), retain), nil)[0]
	}
	if st := create("huge", 1<<40); st == stOK {
		t.Fatal("a retention of 2^40 records was accepted")
	}
	if st := create("limit", maxRetain); st != stOK {
		t.Fatalf("a retention of maxRetain answered status %d", st)
	}
}

// sendBatchRequest builds an opSendBatch frame of n records.
func sendBatchRequest(topic string, n, valueLen int) []byte {
	recs := make([]mq.Record, n)
	for i := range recs {
		recs[i] = mq.Record{
			Key:       []byte{'k', byte(i)},
			Value:     bytes.Repeat([]byte{byte(i)}, valueLen),
			Watermark: mq.Watermark{From: "leaf-1", At: time.Unix(1723000000, int64(i))},
		}
	}
	return appendSendRecords(appendStr([]byte{opSendBatch}, topic), recs...)
}

// sendToRequest builds an opSendTo frame: recs directed at partition part.
func sendToRequest(topic string, part uint64, recs ...mq.Record) []byte {
	return appendSendRecords(appendUvarint(appendStr([]byte{opSendTo}, topic), part), recs...)
}

// appendSendRecords appends the counted records of a send frame.
func appendSendRecords(req []byte, recs ...mq.Record) []byte {
	req = appendUvarint(req, uint64(len(recs)))
	for _, r := range recs {
		req = appendBytes(req, r.Key)
		req = appendBytes(req, r.Value)
		req = appendWatermark(req, r.Watermark)
	}
	return req
}

// A directed send names its partition on the wire, and the broker indexes
// its logs with it: one past the topic's count, or one that wraps int, gets
// an error answer from a daemon that keeps serving, and a valid one lands on
// the partition it names.
func TestDirectedSendPartitionIsChecked(t *testing.T) {
	s, cs := dispatchFixture(t)
	v := mq.Record{Value: []byte("v")}
	for _, part := range []uint64{2, 1 << 40, 1<<63 + 9, ^uint64(0)} {
		resp := s.dispatch(cs, sendToRequest("t", part, v), nil)
		if len(resp) == 0 || resp[0] != stOutOfRange {
			t.Fatalf("a send to partition %d of 2 answered % x, want status %d", part, resp, stOutOfRange)
		}
		if again := s.dispatch(cs, appendStr([]byte{opTopicParts}, "t"), nil); !bytes.Equal(again, []byte{stOK, 2}) {
			t.Fatalf("after a send to partition %d, TopicPartitions(t) answers % x", part, again)
		}
	}
	tp, err := s.bus.Broker().Topic("t")
	if err != nil {
		t.Fatal(err)
	}
	hw0, hw1 := tp.HighWatermark(0), tp.HighWatermark(1)
	if resp := s.dispatch(cs, sendToRequest("t", 1, v, v), nil); !bytes.Equal(resp, []byte{stOK}) {
		t.Fatalf("a send of 2 records to partition 1 answered % x", resp)
	}
	if d0, d1 := tp.HighWatermark(0)-hw0, tp.HighWatermark(1)-hw1; d0 != 0 || d1 != 2 {
		t.Fatalf("a send of 2 records to partition 1 grew partitions 0 and 1 by %d and %d", d0, d1)
	}
}

// The op bytes are the wire: each survivor keeps its value, and the four
// retired ones — 3, a one-record send; 7, a fetch; 15, a wait-for-ready
// long-poll; 16, a rebalance long-poll — get the unknown-op answer, their
// old operands and all.
func TestRetiredOpsAreUnknown(t *testing.T) {
	live := []byte{opCreateTopic, opTopicParts, opSendTo, opSendBatch, opOpenConsumer, opMeta,
		opCommitted, opSeek, opCloseConsumer, opGroupLag, opGroupCommitted, opFetchAt,
		opSubscribe, opCredit, opUnsubscribe}
	if was := []byte{1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19}; !bytes.Equal(live, was) {
		t.Fatalf("the live ops are % d on the wire, were % d", live, was)
	}
	s, cs := dispatchFixture(t)
	u := appendUvarint
	for _, req := range [][]byte{
		appendWatermark(appendBytes(appendBytes(appendStr([]byte{3}, "t"), []byte("k")), []byte("v")), mq.Watermark{From: "s"}),
		u(u(u([]byte{7}, 2), 16), 250),
		u(u([]byte{15}, 2), 2000),
		u(u(u([]byte{16}, 2), 0), 2000),
	} {
		var rd wireReader
		rd.reset(s.dispatch(cs, req, nil))
		if st, msg := rd.byteVal(), rd.str(); st != stErr || msg != "tcp: unknown op" {
			t.Fatalf("retired op %d answered status %d %q, want the unknown-op error", req[0], st, msg)
		}
	}
}

// FuzzDispatch feeds arbitrary request frames to the daemon's dispatch. The
// frame's numbers reach a broker that trusts its callers, so whatever they
// are the answer is a well-formed response — status, then a result or an
// error text; none at all to an opCredit, which is never answered — from a
// daemon that is still standing, for no more memory than the frame's size
// accounts for (beyond the constant a legitimate request of the same op may
// cost: a topic of maxPartitions partitions is the largest).
func FuzzDispatch(f *testing.F) {
	u := appendUvarint
	f.Add(u(u(appendStr([]byte{opCreateTopic}, "t2"), 4), 0))
	f.Add(appendStr([]byte{opTopicParts}, "t"))
	f.Add(appendSendRecords(appendStr([]byte{opSendBatch}, "t"), mq.Record{Key: []byte("k"), Value: []byte("v"), Watermark: mq.Watermark{From: "s"}}))
	f.Add(sendToRequest("t", 1, mq.Record{Value: []byte("v")}))
	f.Add(sendToRequest("t", 2, mq.Record{Value: []byte("v")}))       // past the topic's partitions
	f.Add(sendToRequest("t", 1<<63+1, mq.Record{Value: []byte("v")})) // wraps int
	f.Add(sendBatchRequest("t", 2, 16))
	f.Add(appendStr(appendStr([]byte{opOpenConsumer}, "t"), "g2"))
	f.Add(u(u(u([]byte{7}, 1), 16), 0))   // retired: a fetch
	f.Add(u(u(u([]byte{7}, 2), 16), 250)) // retired: a long-poll fetch
	f.Add(u([]byte{opMeta}, 2))
	f.Add(u(u([]byte{opCommitted}, 2), 1))
	f.Add(u(u(u([]byte{opSeek}, 1), 0), 2))
	f.Add(u([]byte{opCloseConsumer}, 1))
	f.Add(appendStr(appendStr([]byte{opGroupLag}, "t"), "g"))
	f.Add(appendStr(appendStr([]byte{opGroupCommitted}, "t"), "g"))
	f.Add(u(u(u(appendStr([]byte{opFetchAt}, "t"), 0), 1), 8))
	f.Add(u(u([]byte{15}, 2), 2000))                // retired: wait for ready
	f.Add(u([]byte{opSubscribe}, 1))                // cut before the credit
	f.Add(u(u([]byte{opSubscribe}, 99), 4))         // a handle nobody opened
	f.Add(u(u([]byte{opSubscribe}, 1), ^uint64(0))) // credit 2^64-1: refused, not stored
	f.Add(u(u([]byte{opSubscribe}, 2), 4))
	f.Add(u(u([]byte{opCredit}, 2), 2))
	f.Add(u(u([]byte{opCredit}, 2), ^uint64(0)))
	f.Add(u([]byte{opCredit}, 99))
	f.Add(u([]byte{opUnsubscribe}, 2))
	f.Add(u(u(u(u(u([]byte{opCloseConsumer}, 2), 1), 0), 1), 3)) // a rewind of [1, 3) on partition 0
	f.Add(u(u(u(u(u([]byte{opCloseConsumer}, 2), 1), 9), 0), 1)) // a rewind on a partition past the topic
	const standing = 1 << 20
	f.Fuzz(func(t *testing.T, req []byte) {
		s, cs := dispatchFixture(t)
		var resp []byte
		cost := allocated(func() { resp = s.dispatch(cs, req, nil) })
		if limit := uint64(4*len(req) + standing); cost > limit {
			t.Fatalf("a %d-byte request allocated %d bytes (limit %d)", len(req), cost, limit)
		}
		var rd wireReader
		rd.reset(resp)
		switch st := rd.byteVal(); {
		case len(req) > 0 && req[0] == opCredit:
			if len(resp) != 0 {
				t.Fatalf("a credit grant was answered % x", resp)
			}
		case rd.err != nil:
			t.Fatal("empty response")
		case st > stUnknownHandle:
			t.Fatalf("response status %d", st)
		case st != stOK:
			if rd.str(); rd.err != nil || rd.off != len(resp) {
				t.Fatalf("error response % x is not a status and a text", resp)
			}
		}
		// The daemon still serves.
		if again := s.dispatch(cs, appendStr([]byte{opTopicParts}, "t"), nil); !bytes.Equal(again, []byte{stOK, 2}) {
			t.Fatalf("after the frame, TopicPartitions(t) answers % x", again)
		}
	})
}

// A response's element counts size the client's allocations, so one the
// frame's remaining bytes cannot hold is refused as a malformed frame. The
// peer here answers every request with status OK and a count of 2^40.
func TestHostileResponseCountsAreRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var buf []byte
				for {
					req, _, err := readFrame(conn, &buf)
					if err != nil {
						return
					}
					resp := append(make([]byte, frameStart), stOK)
					switch req[0] {
					case opOpenConsumer:
						resp = appendUvarint(resp, 1)
					case opMeta:
						resp = append(resp, 0, 0) // flags, lag
						fallthrough
					default:
						resp = binary.AppendUvarint(resp, 1<<40)
					}
					if _, err := conn.Write(sealFrame(resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cost := allocated(func() {
		if offs, err := cl.GroupCommitted("t", "g"); err == nil {
			t.Errorf("GroupCommitted took a count of 2^40 from an 7-byte frame: %d offsets", len(offs))
		}
		if a := c.Assignment(); a != nil {
			t.Errorf("Assignment took a count of 2^40: %d partitions", len(a))
		}
		if recs, err := cl.FetchInto(nil, "t", 0, 0, 8); err == nil {
			t.Errorf("FetchInto took a count of 2^40: %d records", len(recs))
		}
		if recs, err := c.TryPollInto(nil, 8); err == nil {
			t.Errorf("TryPollInto took a count of 2^40: %d records", len(recs))
		}
	})
	if cost > 1<<20 {
		t.Fatalf("four refused responses allocated %d bytes", cost)
	}
}

// readFrameTwoReads is the framing reference: the length prefix and the body
// taken with one ReadFull each, as readFrame did before it read both at once.
func readFrameTwoReads(r io.Reader) ([]byte, int, error) {
	var hdr [frameStart]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, frameStart, err
	}
	return body, frameStart + len(body), nil
}

// prefixAndHalfReader hands out a frame's length prefix together with half of
// its body in the first Read and the rest in the second — the split that sends
// readFrame from its one Read into the remainder's ReadFull mid-body.
type prefixAndHalfReader struct {
	r     io.Reader
	first bool
}

func (p *prefixAndHalfReader) Read(b []byte) (int, error) {
	if !p.first {
		p.first = true
		var hdr [frameStart]byte
		if _, err := io.ReadFull(p.r, hdr[:]); err != nil {
			return 0, err
		}
		n := copy(b, hdr[:])
		m, err := io.ReadFull(p.r, b[n:min(len(b), n+int(binary.LittleEndian.Uint32(hdr[:]))/2)])
		return n + m, err
	}
	return p.r.Read(b)
}

// One connection buffer reads every frame of a conversation, however the
// stream is cut into Reads: same frames, same byte counts as the two-read
// reference. 508 bytes is the frame that fills a fresh buffer exactly.
func TestReadFrameUnderHostileChunking(t *testing.T) {
	chunkers := map[string]func(io.Reader) io.Reader{
		"whole":         func(r io.Reader) io.Reader { return r },
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
		"prefix+half":   func(r io.Reader) io.Reader { return &prefixAndHalfReader{r: r} },
	}
	sizes := []int{0, 1, 507, 508, 509, 65536, 509, 508, 507, 1, 0}
	for name, chunk := range chunkers {
		t.Run(name, func(t *testing.T) {
			var buf []byte
			for i, size := range sizes {
				body := bytes.Repeat([]byte{byte(i + 1)}, size)
				if size > 0 {
					body[size-1] = 0xFE
				}
				wire := sealFrame(append(make([]byte, frameStart), body...))
				// One frame per reader: the peer sends the next only after
				// this one is answered.
				want, wantN, err := readFrameTwoReads(chunk(bytes.NewReader(wire)))
				if err != nil {
					t.Fatalf("reference read of a %d-byte frame: %v", size, err)
				}
				got, gotN, err := readFrame(chunk(bytes.NewReader(wire)), &buf)
				if err != nil {
					t.Fatalf("frame %d (%d bytes): %v", i, size, err)
				}
				if !bytes.Equal(got, want) || gotN != wantN {
					t.Fatalf("frame %d: read %d bytes of frame for %d wire bytes, reference %d for %d", i, len(got), gotN, len(want), wantN)
				}
				if len(buf) == 0 || !inside(buf[:cap(buf)], got) {
					t.Fatalf("frame %d was not read into the connection's buffer", i)
				}
			}
			if cap(buf) < frameStart+65536 || cap(buf) > 2*65536 {
				t.Fatalf("the buffer ended at %d bytes after frames of up to 65536", cap(buf))
			}
		})
	}
}

// A subscribed connection carries pushes between its answers, and a daemon
// reads credit grants nobody answers, so frames come back to back: the stream
// reader takes every one, whole and in order, into the buffer named for it,
// however the stream is cut into Reads, and counts every wire byte once.
// 508 bytes is the frame that fills a fresh buffer exactly. A
// request/response connection's readFrame still refuses a second frame
// before the first is answered.
func TestPushStreamTakesBackToBackFrames(t *testing.T) {
	chunkers := map[string]func(io.Reader) io.Reader{
		"whole":         func(r io.Reader) io.Reader { return r },
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
		"prefix+half":   func(r io.Reader) io.Reader { return &prefixAndHalfReader{r: r} },
	}
	sizes := []int{0, 1, 507, 508, 509, 65536, 509, 508, 507, 1, 0, 3, 2}
	var wire []byte
	var bodies [][]byte
	for i, size := range sizes {
		body := bytes.Repeat([]byte{byte(i + 1)}, size)
		if size > 0 {
			body[size-1] = 0xFE
		}
		bodies = append(bodies, body)
		wire = append(wire, sealFrame(append(make([]byte, frameStart), body...))...)
	}
	for name, chunk := range chunkers {
		t.Run(name, func(t *testing.T) {
			fr := frameReader{r: chunk(bytes.NewReader(wire))}
			var ring [3][]byte // frames land in turn in buffers of their own
			total := 0
			for i, want := range bodies {
				buf := &ring[i%len(ring)]
				got, n, err := fr.next(buf)
				if err != nil {
					t.Fatalf("frame %d (%d bytes): %v", i, len(want), err)
				}
				total += n
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d: read %d bytes, want %d", i, len(got), len(want))
				}
				if !inside((*buf)[:cap(*buf)], got) {
					t.Fatalf("frame %d was not read into the buffer named for it", i)
				}
			}
			if total != len(wire) {
				t.Fatalf("%d frames counted %d wire bytes, sent %d", len(bodies), total, len(wire))
			}
			if _, _, err := fr.next(&ring[0]); err != io.EOF {
				t.Fatalf("past the last frame: %v, want EOF", err)
			}
		})
	}
	var buf []byte
	if frame, _, err := readFrame(bytes.NewReader(wire), &buf); err == nil {
		t.Fatalf("readFrame took back-to-back frames as one %d-byte frame", len(frame))
	}
	// A length over maxFrame is refused on the prefix alone, carried or read.
	for _, lead := range [][]byte{nil, sealFrame(make([]byte, frameStart+3))} {
		stream := append(append([]byte(nil), lead...), binary.LittleEndian.AppendUint32(nil, maxFrame+1)...)
		stream = append(stream, make([]byte, 64)...)
		fr := frameReader{r: bytes.NewReader(stream)}
		buf := make([]byte, minReadBuf)
		if lead != nil {
			if _, _, err := fr.next(&buf); err != nil {
				t.Fatalf("the frame before the oversize one: %v", err)
			}
		}
		var err error
		cost := allocated(func() { _, _, err = fr.next(&buf) })
		if err == nil {
			t.Fatal("a frame length over maxFrame was accepted")
		}
		if cap(buf) != minReadBuf || cost > slack {
			t.Fatalf("refusing the length left a %d-byte buffer and allocated %d bytes", cap(buf), cost)
		}
	}
}

// A length prefix over maxFrame is refused on the prefix alone: no buffer is
// grown for it.
func TestReadFrameRefusesOversizeBeforeAllocating(t *testing.T) {
	wire := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	wire = append(wire, make([]byte, 64)...)
	buf := make([]byte, minReadBuf)
	var err error
	cost := allocated(func() { _, _, err = readFrame(bytes.NewReader(wire), &buf) })
	if err == nil {
		t.Fatal("a frame length over maxFrame was accepted")
	}
	if cap(buf) != minReadBuf || cost > slack {
		t.Fatalf("refusing the length left a %d-byte buffer and allocated %d bytes", cap(buf), cost)
	}
}

// pushFrameBytes is a push frame of recs as the daemon writes it, gathered
// pieces joined, without its length prefix.
func pushFrameBytes(flags byte, recs ...mq.Record) []byte {
	var g gather
	g.appendPush(flags, recs)
	var out bytes.Buffer
	var sent atomic.Int64
	if err := g.writeTo(&out, &sent); err != nil {
		panic(err)
	}
	return out.Bytes()[frameStart:]
}

// FuzzPushFrame feeds arbitrary frames to a consumer's landing path, as its
// reader hands them over: a push is decoded in place and queued, anything
// else taken for an answer to no call. Whatever the bytes, a frame is
// refused with its slot back in the ring, or its records — lent from the
// frame, never pointing outside it — come out of polls in order, and the
// processed-view bookkeeping (Committed's first held offset, Close's rewinds)
// reads them without fault, for no memory the frame does not pay for.
func FuzzPushFrame(f *testing.F) {
	at := time.Unix(1723000000, 0)
	rec := func(part int, off int64, valueLen int) mq.Record {
		return mq.Record{Key: []byte{'k'}, Value: bytes.Repeat([]byte{byte(off)}, valueLen), Ts: at,
			Watermark: mq.Watermark{From: "edge1-0", At: at}, Partition: part, Offset: off}
	}
	f.Add(pushFrameBytes(0, rec(0, 4, 8), rec(1, 9, 8), rec(0, 5, 8)))
	f.Add(pushFrameBytes(0, rec(0, 7, gatherMin+1)))
	f.Add(pushFrameBytes(flagTopicClosed))
	f.Add(pushFrameBytes(0, rec(0, 4, 8))[:9])
	f.Add([]byte{pushMark})
	f.Add([]byte{stOK, 3})
	f.Fuzz(func(t *testing.T, frame []byte) {
		cc := newClientConsumer(nil, "t", "g")
		i := cc.takeSlot()
		var err error
		cost := allocated(func() { err = cc.land(nil, i, frame) })
		if limit := uint64(2*recordBytes*len(frame) + len(frame) + slack); cost > limit {
			t.Fatalf("landing a %d-byte frame allocated %d bytes (limit %d)", len(frame), cost, limit)
		}
		if err != nil {
			if len(cc.idle) != ringFrames+1 || cc.held != 0 || len(cc.queue) != 0 {
				t.Fatalf("a refused frame left %d slots free, %d held, %d queued", len(cc.idle), cc.held, len(cc.queue))
			}
			return
		}
		if len(frame) == 0 || frame[0] != pushMark {
			return // an answer: copied out for the call waiting on it
		}
		held := 0
		cc.heldBefore(^uint64(0), func(*mq.Record) bool { held++; return true })
		if held > len(frame)/minRecordBytes {
			t.Fatalf("%d records held from %d bytes", held, len(frame))
		}
		rw := cc.untaken()
		for _, w := range rw {
			if w.from >= w.end {
				t.Fatalf("rewind of partition %d is [%d, %d)", w.part, w.from, w.end)
			}
		}
		var got []mq.Record
		for len(got) < held {
			n := len(got)
			got, _, _ = cc.take(got, 3)
			if len(got) == n {
				t.Fatalf("polls stopped at %d of %d held records", n, held)
			}
		}
		for k, r := range got {
			if !inside(frame, r.Key) || !inside(frame, r.Value) {
				t.Fatalf("record %d points outside its frame", k)
			}
		}
		if more, _, _ := cc.take(nil, 3); len(more) != 0 || cc.held != 0 {
			t.Fatalf("after every record: %d more, %d frames held", len(more), cc.held)
		}
	})
}
