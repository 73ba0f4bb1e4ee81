package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

const (
	dialTimeout = 5 * time.Second
	// ioGrace pads every read deadline past the request's server-side wait
	// budget: a response later than wait+grace means the conn is dead, not
	// slow.
	ioGrace = 15 * time.Second
	// longPollMs is the client's blocking-poll round: PollInto re-issues
	// fetches of this length, checking its context between rounds.
	longPollMs = 250
	// watchPollMs is the long-poll round of the background WaitChan
	// watcher — longer than fetch rounds because an idle watcher's only cost
	// is holding a parked request open.
	watchPollMs = 2000
	// watchRetry is the beat a watcher waits after a failed round before it
	// tries again, rather than spinning on a dead daemon or a stale handle.
	watchRetry = 100 * time.Millisecond
)

// Client mounts a remote Server as a transport.Bus. Producers and consumers
// each own a dedicated connection (their request streams are independent and
// a blocking fetch must not head-of-line-block an unrelated send); Bus-level
// ops share one admin connection. Every connection transparently redials
// once per failed call: producers retry the send (at-least-once, like a
// non-idempotent Kafka producer), consumers re-open their server-side
// handle — rejoining their group or re-seeking their standalone positions to
// the exact next offsets — before the call is retried, so a broker bounce
// surfaces as at most one failed call, not a wedged pipeline.
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
// its connections (admin, producers, consumers, watchers).
func (cl *Client) Counters() transport.Counters { return cl.ctr.snapshot() }

// Close drops every connection this client opened. The remote daemon — and
// the topics, groups, and records it holds — keeps running; only this
// process's producers, consumers, and watchers go away (the server reaps
// their handles as the conns drop, so group members leave and rebalance).
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
	return cl.admin.call(0, func(req []byte) []byte {
		req = append(req, opCreateTopic)
		req = appendStr(req, name)
		req = appendUvarint(req, uint64(partitions))
		return appendUvarint(req, uint64(retain))
	}, nil)
}

// TopicPartitions returns the partition count of an existing topic.
func (cl *Client) TopicPartitions(name string) (int, error) {
	var n int
	err := cl.admin.call(0, func(req []byte) []byte {
		req = append(req, opTopicParts)
		return appendStr(req, name)
	}, func(r *wireReader) error {
		n = int(r.uvarint())
		return r.err
	})
	return n, err
}

// GroupLag returns a group's total lag on a topic — the remote form of the
// ingest-backpressure probe, answered from the daemon's own committed
// offsets and high watermarks so it is exactly as truthful as in-process.
func (cl *Client) GroupLag(topic, group string) (int64, error) {
	var lag int64
	err := cl.admin.call(0, func(req []byte) []byte {
		req = append(req, opGroupLag)
		req = appendStr(req, topic)
		return appendStr(req, group)
	}, func(r *wireReader) error {
		lag = int64(r.uvarint())
		return r.err
	})
	return lag, err
}

// GroupCommitted returns a group's committed offset per partition.
func (cl *Client) GroupCommitted(topic, group string) ([]int64, error) {
	var offs []int64
	err := cl.admin.call(0, func(req []byte) []byte {
		req = append(req, opGroupCommitted)
		req = appendStr(req, topic)
		return appendStr(req, group)
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
	err := cl.admin.call(0, func(req []byte) []byte {
		req = append(req, opFetchAt)
		req = appendStr(req, topic)
		req = appendUvarint(req, uint64(partition))
		req = appendUvarint(req, uint64(from))
		return appendUvarint(req, uint64(max))
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

// RetainsSent implements transport.Bus: a send has been written to the
// socket (and answered) by the time it returns, so the caller's bytes are
// its own again.
func (cl *Client) RetainsSent() bool { return false }

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
	cc := &clientConsumer{
		cl:         cl,
		topic:      topic,
		group:      group,
		positions:  make(map[int]int64),
		drainedSig: make(chan struct{}, 1),
	}
	// The open runs inside the reconnect hook so a redial re-establishes the
	// server-side handle (rejoin the group / re-seek standalone positions)
	// before the failed call is retried.
	cc.rc = cl.newRconn(cc.reopen)
	if err := cc.rc.connect(); err != nil {
		cc.rc.close()
		return nil, err
	}
	return cc, nil
}

func (cl *Client) newRconn(hook func(raw rawCall) error) *rconn {
	rc := &rconn{cl: cl, hook: hook, reqBuf: make([]byte, frameStart, 64)}
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
type rawCall func(req []byte, waitMs uint64) (*wireReader, error)

// rconn is one client connection: calls are serialized by mu, and a call
// that hits an I/O error closes the conn, redials once, replays the
// reconnect hook, rebuilds the request, and retries. The conn pointer and
// closed flag live under their own cmu (never held across I/O) so close()
// can interrupt a parked long-poll from another goroutine.
type rconn struct {
	cl   *Client
	hook func(raw rawCall) error

	mu     sync.Mutex // serializes calls
	reqBuf []byte     // request under construction, frameStart headroom first
	rbuf   []byte     // response frame, unless the call brings its own buffer
	rd     wireReader // walks the response; reset per call

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
		rc.conn.Close() // interrupts any parked read immediately
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
	if rc.hook != nil {
		raw := func(req []byte, waitMs uint64) (*wireReader, error) {
			framed := append(make([]byte, frameStart, frameStart+len(req)), req...)
			frame, err := rc.exchange(conn, framed, waitMs, &rc.rbuf)
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

// exchange seals and writes one request — built after frameStart bytes of
// headroom, so it goes out as it stands, in one Write — and reads the
// response frame through *rbuf (grown as needed). Callers hold rc.mu; the
// returned frame aliases *rbuf and is valid until the next exchange into it.
func (rc *rconn) exchange(conn net.Conn, req []byte, waitMs uint64, rbuf *[]byte) ([]byte, error) {
	conn.SetDeadline(time.Now().Add(ioGrace + time.Duration(waitMs)*time.Millisecond))
	n, err := conn.Write(sealFrame(req))
	rc.cl.ctr.bytesOut.Add(int64(n))
	if err != nil {
		return nil, err
	}
	rc.cl.ctr.roundTrips.Add(1)
	frame, rn, err := readFrame(conn, rbuf)
	rc.cl.ctr.bytesIn.Add(int64(rn))
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// call runs one request with redial-and-retry. build is re-invoked per
// attempt (the reconnect hook may have changed state the request embeds,
// e.g. a re-opened consumer handle); decode runs on the stOK payload while
// the frame buffer is still valid. Server-reported errors are returned
// as-is and never retried — only conn-level I/O failures trigger the
// redial.
func (rc *rconn) call(waitMs uint64, build func(req []byte) []byte, decode func(*wireReader) error) error {
	return rc.callInto(&rc.rbuf, waitMs, build, decode)
}

// callInto is call reading the response into the caller's frame buffer
// instead of the connection's — for a caller that keeps views into the frame
// after the call returns, which rbuf cannot promise: any goroutine's next
// call on this connection overwrites it.
func (rc *rconn) callInto(rbuf *[]byte, waitMs uint64, build func(req []byte) []byte, decode func(*wireReader) error) error {
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
		rc.reqBuf = build(rc.reqBuf[:frameStart])
		frame, err := rc.exchange(conn, rc.reqBuf, waitMs, rbuf)
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

// minRecordBytes is the least a record occupies in a fetch response: two
// empty length-prefixed fields, two absent instants, an empty origin, and
// one-byte partition and offset.
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
// opSendTo — and waits for the daemon's answer.
func (p *clientProducer) send(op byte, topic string, partition int, recs []mq.Record) error {
	err := p.rc.call(0, func(req []byte) []byte {
		req = append(req, op)
		req = appendStr(req, topic)
		if op == opSendTo {
			req = appendUvarint(req, uint64(partition))
		}
		req = appendUvarint(req, uint64(len(recs)))
		for i := range recs {
			req = appendBytes(req, recs[i].Key)
			req = appendBytes(req, recs[i].Value)
			req = appendWatermark(req, recs[i].Watermark)
		}
		return req
	}, nil)
	if err != nil {
		p.cl.ctr.sendErrs.Add(1)
	}
	return err
}

// ---- consumer ----

// closedChan is returned by WaitChan once the topic (or consumer) is done:
// a woken caller re-polls, finds nothing, and checks TopicClosed — the
// shut-down topic's "wakes immediately and forever" contract.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

type clientConsumer struct {
	cl    *Client
	topic string
	group string // "" = standalone
	rc    *rconn

	handle      atomic.Uint64
	closed      atomic.Bool
	topicClosed atomic.Bool

	// frame is the response buffer of the polls, whose records point into it
	// until the next one. The consumer's own, not the connection's
	// rbuf: Lag, Committed or Close from another goroutine run their calls
	// on the same connection and would overwrite views the poller still
	// reads.
	frame []byte

	// positions tracks a standalone consumer's next offset per partition so
	// a reconnect can re-seek the fresh server-side consumer to exactly
	// where this one left off (group offsets live server-side and need no
	// client copy).
	pmu       sync.Mutex
	positions map[int]int64

	// drained is the daemon's last word on this handle: the latest fetch came
	// back short with no lag behind it, and no wait-ready round has said
	// ready since. While it stands — and a watcher runs to take it down —
	// TryPollInto finds nothing without asking. Every fetch answer sets or
	// clears it; a fetch error, a reconnect and Close clear it; a closed
	// topic overrides it.
	drained atomic.Bool
	// watching reports that the WaitChan watcher is running: without one
	// nothing would ever clear drained, so nobody may act on it.
	watching atomic.Bool

	// WaitChan machinery: a lazily-started watcher that, while the consumer
	// is drained, long-polls the handle's readiness over its own conn and
	// closes waitCh when there is something to fetch. drainedSig (one slot:
	// it carries "look at drained again", not a count) is how the fetch path
	// rouses it.
	wmu        sync.Mutex
	waitCh     chan struct{}
	waitRC     *rconn
	drainedSig chan struct{}
}

var _ transport.Consumer = (*clientConsumer)(nil)

// reopen is the reconnect hook: it re-establishes the server-side consumer
// on a fresh conn. Group consumers rejoin (a new member under a bumped
// generation; committed offsets are group-owned and survive); standalone
// consumers re-seek every tracked position so no record is re-delivered.
func (cc *clientConsumer) reopen(raw rawCall) error {
	req := []byte{opOpenConsumer}
	req = appendStr(req, cc.topic)
	req = appendStr(req, cc.group)
	r, err := raw(req, 0)
	if err != nil {
		return err
	}
	h := r.uvarint()
	if r.err != nil {
		return r.err
	}
	cc.handle.Store(h)
	cc.drained.Store(false) // a fresh handle: nothing is known about it yet
	if cc.group != "" {
		return nil
	}
	cc.pmu.Lock()
	seeks := make(map[int]int64, len(cc.positions))
	for p, off := range cc.positions {
		seeks[p] = off
	}
	cc.pmu.Unlock()
	for p, off := range seeks {
		req := []byte{opSeek}
		req = appendUvarint(req, h)
		req = appendUvarint(req, uint64(p))
		req = appendUvarint(req, uint64(off))
		if _, err := raw(req, 0); err != nil {
			return err
		}
	}
	return nil
}

// fetch runs one poll round: non-blocking at waitMs 0, else a server-side
// long poll. Topic-closed and drained state piggyback on every response. The
// response lands in cc.frame and the records alias it.
func (cc *clientConsumer) fetch(dst []mq.Record, max int, waitMs uint64) ([]mq.Record, error) {
	if cc.closed.Load() {
		return dst, mq.ErrClosed
	}
	if max <= 0 {
		max = 1
	}
	out := dst
	err := cc.rc.callInto(&cc.frame, waitMs, func(req []byte) []byte {
		req = append(req, opFetch)
		req = appendUvarint(req, cc.handle.Load())
		req = appendUvarint(req, uint64(max))
		return appendUvarint(req, waitMs)
	}, func(r *wireReader) error {
		flags := r.byteVal()
		if r.err != nil {
			return r.err
		}
		if flags&flagTopicClosed != 0 {
			cc.topicClosed.Store(true)
		}
		var derr error
		if out, derr = decodeRecords(r, out, true); derr != nil {
			return derr
		}
		cc.setDrained(flags&flagDrained != 0)
		return nil
	})
	if err != nil {
		cc.drained.Store(false)
		if errors.Is(err, mq.ErrClosed) {
			cc.topicClosed.Store(true)
		} else {
			cc.cl.ctr.pollErrs.Add(1)
		}
		return dst, err
	}
	if cc.group == "" && len(out) > len(dst) {
		cc.pmu.Lock()
		for i := len(dst); i < len(out); i++ {
			cc.positions[out[i].Partition] = out[i].Offset + 1
		}
		cc.pmu.Unlock()
	}
	return out, nil
}

// PollInto lends: the records' Key/Value point into the fetch frame and are
// valid until the next PollInto or TryPollInto on this consumer.
func (cc *clientConsumer) PollInto(ctx context.Context, dst []mq.Record, max int) ([]mq.Record, error) {
	for {
		out, err := cc.fetch(dst, max, longPollMs)
		if err != nil {
			return dst, err
		}
		if len(out) > len(dst) {
			return out, nil
		}
		if cc.topicClosed.Load() {
			return dst, mq.ErrClosed
		}
		select {
		case <-ctx.Done():
			return dst, ctx.Err()
		default:
		}
	}
}

// TryPollInto lends, as PollInto does. It alone takes the daemon's word that
// the consumer is drained: while that stands, with a watcher running to take
// it down and fire WaitChan when it falls, the answer is "nothing" and costs
// no round trip. Without a watcher — a consumer that never called WaitChan —
// it always asks, as PollInto does.
func (cc *clientConsumer) TryPollInto(dst []mq.Record, max int) ([]mq.Record, error) {
	if cc.drained.Load() && cc.watching.Load() && !cc.topicClosed.Load() {
		return dst, nil
	}
	return cc.fetch(dst, max, 0)
}

// setDrained records the daemon's latest word and, when it is "drained",
// rouses the watcher to ask the daemon when that stops being true.
func (cc *clientConsumer) setDrained(drained bool) {
	cc.drained.Store(drained)
	if drained {
		cc.rouseWatcher()
	}
}

// rouseWatcher has a watcher asleep on drainedSig look at drained (and
// closed) again.
func (cc *clientConsumer) rouseWatcher() {
	select {
	case cc.drainedSig <- struct{}{}:
	default:
	}
}

// meta fetches the handle's lag/assignment snapshot.
func (cc *clientConsumer) meta() (lag int64, assign []int, err error) {
	err = cc.rc.call(0, func(req []byte) []byte {
		req = append(req, opMeta)
		return appendUvarint(req, cc.handle.Load())
	}, func(r *wireReader) error {
		flags := r.byteVal()
		lag = int64(r.uvarint())
		n := r.count(1)
		if r.err != nil {
			return r.err
		}
		if flags&flagTopicClosed != 0 {
			cc.topicClosed.Store(true)
		}
		assign = make([]int, n)
		for i := range assign {
			assign[i] = int(r.uvarint())
		}
		return r.err
	})
	return lag, assign, err
}

func (cc *clientConsumer) Assignment() []int {
	_, assign, err := cc.meta()
	if err != nil {
		return nil
	}
	return assign
}

func (cc *clientConsumer) Lag() int64 {
	lag, _, err := cc.meta()
	if err != nil {
		return 0
	}
	return lag
}

func (cc *clientConsumer) Committed(p int) int64 {
	var off int64
	err := cc.rc.call(0, func(req []byte) []byte {
		req = append(req, opCommitted)
		req = appendUvarint(req, cc.handle.Load())
		return appendUvarint(req, uint64(p))
	}, func(r *wireReader) error {
		off = int64(r.uvarint())
		return r.err
	})
	if err != nil {
		return 0
	}
	return off
}

// TopicClosed reports the last observed topic state: every fetch, meta, and
// watcher response refreshes it, so a polling caller observes closure on
// its next round — the pump's arm/try/check sequence needs nothing fresher.
func (cc *clientConsumer) TopicClosed() bool {
	return cc.topicClosed.Load()
}

// WaitChan returns a channel closed when new records may be available. The
// first call starts a background watcher on a dedicated conn. It makes no
// traffic while the consumer keeps finding records: only once a fetch has
// come back drained does it park one wait-ready long-poll at the daemon, and
// fire when that answers ready. A wakeup therefore lags an append by up to a
// round trip, and spurious wakeups are possible after transport errors — both
// within the interface's stated contract — but it is never lost: the
// readiness answer is a level, re-asked for as long as the handle is drained.
func (cc *clientConsumer) WaitChan() <-chan struct{} {
	if cc.closed.Load() || cc.topicClosed.Load() {
		return closedChan
	}
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if cc.waitCh == nil {
		cc.waitCh = make(chan struct{})
	}
	if cc.waitRC == nil {
		cc.waitRC = cc.cl.newRconn(nil)
		cc.watching.Store(true)
		go cc.waitWatcher(cc.waitRC)
	}
	return cc.waitCh
}

func (cc *clientConsumer) fireWait() {
	cc.wmu.Lock()
	if cc.waitCh != nil {
		close(cc.waitCh)
		cc.waitCh = nil
	}
	cc.wmu.Unlock()
}

// waitWatcher turns "drained" back into a wakeup. While the consumer is not
// drained it sleeps on drainedSig; while it is, it keeps one opWaitReady
// parked at the daemon. A ready answer takes drained down BEFORE firing, so
// the woken caller's TryPollInto asks the daemon. The answer is a level (the
// handle's lag when the request is looked at), so it does not matter how the
// request, the fetch that reported drained and an append interleave; a fetch
// that re-reports drained after a ready answer only costs one more round.
func (cc *clientConsumer) waitWatcher(rc *rconn) {
	defer rc.close()
	defer cc.fireWait()
	defer cc.watching.Store(false) // whatever ended it: polls ask the daemon again
	for !cc.closed.Load() {
		if !cc.drained.Load() {
			<-cc.drainedSig // a drained fetch answer, or Close
			continue
		}
		var flags byte
		err := rc.call(watchPollMs, func(req []byte) []byte {
			req = append(req, opWaitReady)
			req = appendUvarint(req, cc.handle.Load())
			return appendUvarint(req, watchPollMs)
		}, func(r *wireReader) error {
			flags = r.byteVal()
			return r.err
		})
		switch {
		case err == nil && flags&flagTopicClosed != 0:
			cc.topicClosed.Store(true)
			return
		case err == nil && flags&flagReady != 0:
			cc.drained.Store(false)
			cc.fireWait()
		case err == nil:
			// The round ran out (or the daemon is shutting down) with nothing
			// to fetch: still drained, park again.
		case rc.isClosed() || errors.Is(err, mq.ErrClosed):
			cc.topicClosed.Store(errors.Is(err, mq.ErrClosed))
			return
		default:
			// Transient — or, after the main conn reconnected, a handle the
			// daemon no longer knows: stop trusting drained, wake waiters
			// (spurious wakeups are allowed) and let the next fetch, through
			// the re-opened handle, say where things stand.
			cc.drained.Store(false)
			cc.fireWait()
			time.Sleep(watchRetry)
		}
	}
}

// Close releases the consumer: the server-side handle is closed
// (best-effort — a dropped conn reaps it anyway), the group membership
// leaves, and local waiters are woken.
func (cc *clientConsumer) Close() {
	if cc.closed.Swap(true) {
		return
	}
	_ = cc.rc.call(0, func(req []byte) []byte {
		req = append(req, opCloseConsumer)
		return appendUvarint(req, cc.handle.Load())
	}, nil)
	cc.rc.close()
	cc.wmu.Lock()
	wrc := cc.waitRC
	cc.wmu.Unlock()
	if wrc != nil {
		wrc.close()
	}
	cc.drained.Store(false)
	cc.rouseWatcher() // it sees closed and exits
	cc.fireWait()
}
