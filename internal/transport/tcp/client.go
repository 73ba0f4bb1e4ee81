package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

const (
	dialTimeout = 5 * time.Second
	// ioGrace bounds the wait for an answer: a response later than this
	// means the conn is dead, not slow.
	ioGrace = 15 * time.Second
	// ringFrames is the push frames a consumer holds at once — the credit it
	// grants the daemon. Freed frames are granted back once half the ring is
	// free: one grant per ringFrames/2 pushes.
	ringFrames = 8
)

// Client mounts a remote Server as a transport.Bus. Producers and consumers
// each own a dedicated connection (their streams are independent, and a
// consumer's pushes must not queue behind an unrelated send); Bus-level ops
// share one admin connection. Every connection transparently redials once
// per failed call: producers retry the send (at-least-once, like a
// non-idempotent Kafka producer), consumers re-open and re-subscribe their
// server-side handle — rejoining their group or re-seeking their standalone
// positions to the exact next offsets — so a broker bounce surfaces as at
// most one failed call, not a wedged pipeline.
type Client struct {
	addr string
	ctr  counters

	mu     sync.Mutex
	closed bool
	conns  map[*rconn]struct{}

	admin *rconn
}

var _ transport.Bus = (*Client)(nil)
var _ transport.CounterSource = (*Client)(nil)

// Dial connects to a Server at addr. It fails fast if the daemon is not
// reachable; connections lost later are redialed per call.
func Dial(addr string) (*Client, error) {
	cl := &Client{addr: addr, conns: make(map[*rconn]struct{})}
	cl.admin = cl.newRconn(nil)
	if err := cl.admin.connect(); err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w", addr, err)
	}
	return cl, nil
}

// Counters returns this client's wire-traffic counters, summed over all of
// its connections (admin, producers, consumers).
func (cl *Client) Counters() transport.Counters { return cl.ctr.snapshot() }

// Close drops every connection this client opened. The remote daemon — and
// the topics, groups, and records it holds — keeps running; only this
// process's producers and consumers go away (the server reaps their handles
// as the conns drop, so group members leave and rebalance).
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	conns := make([]*rconn, 0, len(cl.conns))
	for rc := range cl.conns {
		conns = append(conns, rc)
	}
	cl.mu.Unlock()
	for _, rc := range conns {
		rc.close()
	}
	return nil
}

// CreateTopic creates (or idempotently re-creates) a topic on the daemon.
func (cl *Client) CreateTopic(name string, partitions, retain int) error {
	return cl.admin.call(func(g *gather) {
		g.hdr = appendStr(append(g.hdr, opCreateTopic), name)
		g.hdr = appendUvarint(appendUvarint(g.hdr, uint64(partitions)), uint64(retain))
	}, nil)
}

// TopicPartitions returns the partition count of an existing topic.
func (cl *Client) TopicPartitions(name string) (int, error) {
	var n int
	err := cl.admin.call(func(g *gather) {
		g.hdr = appendStr(append(g.hdr, opTopicParts), name)
	}, func(r *wireReader) error {
		n = int(r.uvarint())
		return r.err
	})
	return n, err
}

// GroupLag returns a group's total lag on a topic — the remote form of the
// ingest-backpressure probe, answered from the daemon's own committed
// offsets and high watermarks. Records pushed to the group's members and
// still held in their rings count as consumed: the daemon committed them
// when it pushed them.
func (cl *Client) GroupLag(topic, group string) (int64, error) {
	var lag int64
	err := cl.admin.call(func(g *gather) {
		g.hdr = appendStr(appendStr(append(g.hdr, opGroupLag), topic), group)
	}, func(r *wireReader) error {
		lag = int64(r.uvarint())
		return r.err
	})
	return lag, err
}

// GroupCommitted returns a group's committed offset per partition.
func (cl *Client) GroupCommitted(topic, group string) ([]int64, error) {
	var offs []int64
	err := cl.admin.call(func(g *gather) {
		g.hdr = appendStr(appendStr(append(g.hdr, opGroupCommitted), topic), group)
	}, func(r *wireReader) error {
		n := r.count(1)
		if r.err != nil {
			return r.err
		}
		offs = make([]int64, n)
		for i := range offs {
			offs[i] = int64(r.uvarint())
		}
		return r.err
	})
	return offs, err
}

// FetchInto reads up to max records from a partition starting at offset
// from, appending onto dst. Payload bytes are copied into one fresh block
// per batch: the records own them.
func (cl *Client) FetchInto(dst []transport.Record, topic string, partition int, from int64, max int) ([]transport.Record, error) {
	out := dst
	err := cl.admin.call(func(g *gather) {
		g.hdr = appendUvarint(appendStr(append(g.hdr, opFetchAt), topic), uint64(partition))
		g.hdr = appendUvarint(appendUvarint(g.hdr, uint64(from)), uint64(max))
	}, func(r *wireReader) error {
		var derr error
		out, derr = decodeRecords(r, out, false)
		return derr
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// NewProducer returns a producer with its own connection, dialed lazily on
// first send.
func (cl *Client) NewProducer() transport.Producer {
	return &clientProducer{cl: cl, rc: cl.newRconn(nil)}
}

// NewConsumer returns a standalone consumer over every partition of topic.
func (cl *Client) NewConsumer(topic string) (transport.Consumer, error) {
	return cl.newConsumer(topic, "")
}

// NewGroupConsumer returns a consumer that joins the named group on topic.
func (cl *Client) NewGroupConsumer(topic, group string) (transport.Consumer, error) {
	if group == "" {
		return nil, errors.New("tcp: empty group name")
	}
	return cl.newConsumer(topic, group)
}

func (cl *Client) newConsumer(topic, group string) (*clientConsumer, error) {
	cc := newClientConsumer(cl, topic, group)
	// The open and the subscription run inside the reconnect hook, so a
	// redial re-establishes the server-side handle (rejoin the group /
	// re-seek standalone positions) before the failed call is retried.
	cc.rc = cl.newRconn(cc.reopen)
	cc.rc.sub = cc
	if err := cc.rc.connect(); err != nil {
		cc.rc.close()
		return nil, err
	}
	return cc, nil
}

func (cl *Client) newRconn(hook func(raw rawCall) error) *rconn {
	rc := &rconn{cl: cl, hook: hook}
	cl.mu.Lock()
	if cl.closed {
		rc.closed = true
	} else {
		cl.conns[rc] = struct{}{}
	}
	cl.mu.Unlock()
	return rc
}

func (cl *Client) dropConn(rc *rconn) {
	cl.mu.Lock()
	delete(cl.conns, rc)
	cl.mu.Unlock()
}

// ---- reconnecting connection ----

// rawCall performs one request/response on an rconn's live connection with
// no locking or retry — the primitive reconnect hooks are handed to rebuild
// session state. req is a bare frame (no headroom; the hook path is cold
// and copies it into one); the returned reader is valid until the next call.
type rawCall func(req []byte) (*wireReader, error)

// rconn is one client connection: calls are serialized by mu, and a call
// that hits an I/O error closes the conn, redials once, replays the
// reconnect hook, rebuilds the request, and retries. The conn pointer and
// closed flag live under their own cmu (never held across I/O) so close()
// can interrupt a blocked read from another goroutine. A consumer's
// connection is subscribed (sub): its reader goroutine, started on every
// dial, owns the reads, and a call's answer is the next response frame the
// reader meets between the pushes.
type rconn struct {
	cl   *Client
	hook func(raw rawCall) error
	sub  *clientConsumer

	mu   sync.Mutex // serializes calls and, subscribed, credit grants
	req  gather     // the request under construction
	rbuf []byte     // response frame of a request/response connection
	rd   wireReader // walks the response; reset per call

	cmu        sync.Mutex
	conn       net.Conn
	everDialed bool
	closed     bool
}

func (rc *rconn) connect() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ensureLocked()
}

func (rc *rconn) isClosed() bool {
	rc.cmu.Lock()
	defer rc.cmu.Unlock()
	return rc.closed
}

func (rc *rconn) close() {
	rc.cmu.Lock()
	if rc.closed {
		rc.cmu.Unlock()
		return
	}
	rc.closed = true
	if rc.conn != nil {
		rc.conn.Close() // interrupts any blocked read immediately
		rc.conn = nil
	}
	rc.cmu.Unlock()
	rc.cl.dropConn(rc)
}

// liveConn returns the current conn, or nil if absent/closed.
func (rc *rconn) liveConn() (net.Conn, error) {
	rc.cmu.Lock()
	defer rc.cmu.Unlock()
	if rc.closed {
		return nil, fmt.Errorf("%w: transport client closed", mq.ErrClosed)
	}
	return rc.conn, nil
}

func (rc *rconn) dropLive(conn net.Conn) {
	conn.Close()
	rc.cmu.Lock()
	if rc.conn == conn {
		rc.conn = nil
	}
	rc.cmu.Unlock()
}

// ensureLocked dials (or redials) and replays the reconnect hook. Callers
// hold rc.mu.
func (rc *rconn) ensureLocked() error {
	conn, err := rc.liveConn()
	if err != nil {
		return err
	}
	if conn != nil {
		return nil
	}
	if rc.sub != nil {
		rc.sub.awaitReader() // the last connection's reader has let go
	}
	conn, err = net.DialTimeout("tcp", rc.cl.addr, dialTimeout)
	if err != nil {
		return err
	}
	rc.cmu.Lock()
	if rc.closed {
		rc.cmu.Unlock()
		conn.Close()
		return fmt.Errorf("%w: transport client closed", mq.ErrClosed)
	}
	if rc.everDialed {
		rc.cl.ctr.reconnects.Add(1)
	}
	rc.everDialed = true
	rc.conn = conn
	rc.cmu.Unlock()
	if rc.sub != nil {
		rc.sub.startReader(conn)
	}
	if rc.hook != nil {
		raw := func(req []byte) (*wireReader, error) {
			rc.req.reset()
			rc.req.hdr = append(rc.req.hdr, req...)
			frame, err := rc.exchange(conn)
			if err != nil {
				return nil, err
			}
			return &rc.rd, parseResp(&rc.rd, frame)
		}
		if err := rc.hook(raw); err != nil {
			rc.dropLive(conn)
			return err
		}
	}
	return nil
}

// exchange writes the request built in rc.req — gathered: its large fields
// go out from where they live — and returns the response frame, valid until
// the next exchange. Callers hold rc.mu.
func (rc *rconn) exchange(conn net.Conn) ([]byte, error) {
	if rc.sub != nil {
		return rc.sub.exchange(conn, &rc.req)
	}
	conn.SetDeadline(time.Now().Add(ioGrace))
	if err := rc.req.writeTo(conn, &rc.cl.ctr.bytesOut); err != nil {
		return nil, err
	}
	rc.cl.ctr.roundTrips.Add(1)
	frame, rn, err := readFrame(conn, &rc.rbuf)
	rc.cl.ctr.bytesIn.Add(int64(rn))
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// call runs one request with redial-and-retry. build is re-invoked per
// attempt (the reconnect hook may have changed state the request embeds,
// e.g. a re-opened consumer handle) and appends the request to g.hdr after
// its headroom; decode runs on the stOK payload while the frame is still
// valid, still under the call lock. Server-reported errors are returned
// as-is and never retried — only conn-level I/O failures trigger the redial.
func (rc *rconn) call(build func(g *gather), decode func(*wireReader) error) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := rc.ensureLocked(); err != nil {
			if lastErr != nil && !rc.isClosed() {
				return fmt.Errorf("tcp: reconnect failed: %w (after %v)", err, lastErr)
			}
			return err
		}
		conn, err := rc.liveConn()
		if err != nil {
			return err
		}
		rc.req.reset()
		build(&rc.req)
		frame, err := rc.exchange(conn)
		if err != nil {
			rc.dropLive(conn)
			lastErr = err
			continue
		}
		if err := parseResp(&rc.rd, frame); err != nil {
			return err
		}
		if decode != nil {
			return decode(&rc.rd)
		}
		return nil
	}
	return lastErr
}

// parseResp points r at a response frame and consumes its status: nil leaves
// r at the stOK payload, anything else is the error the frame carries.
func parseResp(r *wireReader, frame []byte) error {
	r.reset(frame)
	st := r.byteVal()
	if r.err != nil {
		return r.err
	}
	if st != stOK {
		return errOf(st, r.str())
	}
	return nil
}

// minRecordBytes is the least a record occupies in a push frame or an
// opFetchAt answer: two empty length-prefixed fields, two absent instants,
// an empty origin, and one-byte partition and offset.
const minRecordBytes = 7

// decodeRecords appends the counted records at r onto dst. With lend, Key
// and Value stay views into r's frame — valid for as long as the frame's
// owner leaves it alone (the lending polls). Without, they are copied into
// one fresh block per batch and the records own them.
func decodeRecords(r *wireReader, dst []mq.Record, lend bool) ([]mq.Record, error) {
	n := r.count(minRecordBytes)
	base := len(dst)
	total := 0
	for i := 0; i < n; i++ {
		rec := r.record()
		if r.err != nil {
			break
		}
		total += len(rec.Key) + len(rec.Value)
		dst = append(dst, rec)
	}
	if r.err != nil {
		return dst[:base], r.err
	}
	if lend {
		return dst, nil
	}
	block := make([]byte, 0, total)
	for i := base; i < len(dst); i++ {
		block, dst[i].Key = blockCopy(block, dst[i].Key)
		block, dst[i].Value = blockCopy(block, dst[i].Value)
	}
	return dst, nil
}

// ---- producer ----

type clientProducer struct {
	cl *Client
	rc *rconn
}

var _ transport.Producer = (*clientProducer)(nil)

func (p *clientProducer) SendBatch(topic string, recs []mq.Record) error {
	if len(recs) == 0 {
		return nil
	}
	return p.send(opSendBatch, topic, 0, recs)
}

func (p *clientProducer) SendTo(topic string, partition int, recs []mq.Record) error {
	return p.send(opSendTo, topic, partition, recs)
}

// send writes one send frame — with the partition after the topic for
// opSendTo — and waits for the daemon's answer. Keys and values go out with
// the frame from the caller's memory, gathered, not copied into it.
func (p *clientProducer) send(op byte, topic string, partition int, recs []mq.Record) error {
	err := p.rc.call(func(g *gather) {
		g.hdr = appendStr(append(g.hdr, op), topic)
		if op == opSendTo {
			g.hdr = appendUvarint(g.hdr, uint64(partition))
		}
		g.hdr = appendUvarint(g.hdr, uint64(len(recs)))
		for i := range recs {
			g.bytes(recs[i].Key)
			g.bytes(recs[i].Value)
			g.hdr = appendWatermark(g.hdr, recs[i].Watermark)
		}
	}, nil)
	if err != nil {
		p.cl.ctr.sendErrs.Add(1)
	}
	return err
}
