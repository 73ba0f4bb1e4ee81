package tcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

// maxWaitMs caps how long a single blocking request (fetch long-poll,
// wait-ready) may park server-side. Clients re-issue; the cap
// bounds how long a dispatch loop can sit in one request after the peer
// vanishes.
const maxWaitMs = 30_000

// Bounds on the numbers a request frame supplies. They size allocations and
// index the broker's tables, and the broker trusts its in-process callers:
// the daemon is where a remote peer's input is checked.
const (
	// maxPartitions bounds a created topic's partition count (each one is a
	// log, a lock and a committed-offset slot per group).
	maxPartitions = 1 << 12
	// maxRetain bounds a created topic's per-partition retention: a retained
	// partition allocates its log, 2 × retain records, in one piece once it
	// outgrows a few records.
	maxRetain = 1 << 16
	// maxFetch bounds the records of one fetch; anything larger is served as
	// this many and the client polls again.
	maxFetch = 1 << 16
)

// counters is the shared atomic backing for transport.Counters. Both the
// server and every client handle own one; conns account into it directly.
type counters struct {
	bytesOut, bytesIn  atomic.Int64
	roundTrips         atomic.Int64
	reconnects         atomic.Int64
	sendErrs, pollErrs atomic.Int64
}

func (c *counters) snapshot() transport.Counters {
	return transport.Counters{
		BytesOut:   c.bytesOut.Load(),
		BytesIn:    c.bytesIn.Load(),
		RoundTrips: c.roundTrips.Load(),
		Reconnects: c.reconnects.Load(),
		SendErrors: c.sendErrs.Load(),
		PollErrors: c.pollErrs.Load(),
	}
}

// Server is the broker daemon: it serves an in-memory transport.Mem backend
// to remote clients over the wire protocol. The server holds a real
// *mq.Consumer per client consumer handle, so group membership, generation
// fencing, and auto-commit-at-fetch all run against the backing broker with
// in-process semantics; the wire only moves records and results.
type Server struct {
	bus *transport.Mem
	ln  net.Listener

	// baseCtx is cancelled by Close so blocking requests (long-poll fetch,
	// opWaitReady) return promptly instead of riding out their waitMs.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	handles map[uint64]*serverHandle
	nextID  uint64
	closed  bool

	ctr counters
	wg  sync.WaitGroup
}

// serverHandle is one client consumer: the server-side consumer doing the
// real work plus the owning connection (for teardown when the conn drops).
type serverHandle struct {
	c     *mq.Consumer
	owner net.Conn
	parts int // the topic's partition count: the range a wire-supplied partition is checked against
}

// Serve starts serving bus on ln and returns immediately. The server does
// not own bus: Close stops serving but leaves the bus (and its topics)
// intact, so a daemon owner decides the shutdown order.
func Serve(ln net.Listener, bus *transport.Mem) *Server {
	s := newServer(bus)
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// newServer builds the dispatch state of a daemon over bus, not yet
// listening (Serve adds the listener; the frame fuzzer dispatches without
// one).
func newServer(bus *transport.Mem) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		bus:     bus,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		handles: make(map[uint64]*serverHandle),
	}
}

// Listen is Serve over a fresh TCP listener on addr (e.g. ":9090" or
// "127.0.0.1:0" for an ephemeral test port — read it back via Addr).
func Listen(addr string, bus *transport.Mem) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, bus), nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Counters returns the server's wire-traffic counters (all conns summed).
func (s *Server) Counters() transport.Counters { return s.ctr.snapshot() }

// Close stops accepting, drops every connection, closes the server-side
// consumers opened on clients' behalf, and waits for the conn handlers to
// drain. The backing bus is left running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cancel()
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// connState is the per-connection dispatch state. Requests on one conn are
// strictly serial (request, response, request, ...), so the scratch buffers
// here are single-owner and recycle across frames.
type connState struct {
	srv  *Server
	conn net.Conn

	producer transport.Producer
	owned    map[uint64]struct{} // consumer handles this conn opened

	rd           wireReader // walks the request; reset per frame
	fetchScratch []mq.Record
	batchScratch []mq.Record
}

func (s *Server) newConnState(conn net.Conn) *connState {
	return &connState{srv: s, conn: conn, owned: make(map[uint64]struct{})}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cs := s.newConnState(conn)
	defer cs.teardown()
	var reqBuf []byte
	respBuf := make([]byte, frameStart, 64)
	for {
		req, n, err := readFrame(conn, &reqBuf)
		s.ctr.bytesIn.Add(int64(n))
		if err != nil {
			return
		}
		// The response is built after the headroom its length goes into and
		// written from where it was built.
		respBuf = s.dispatch(cs, req, respBuf[:frameStart])
		// Counted before the write: a client that has its answer finds it
		// counted. A short write takes back what did not go out.
		frame := sealFrame(respBuf)
		s.ctr.roundTrips.Add(1)
		s.ctr.bytesOut.Add(int64(len(frame)))
		n, err = conn.Write(frame)
		if err != nil {
			s.ctr.bytesOut.Add(int64(n - len(frame)))
			return
		}
	}
}

func (cs *connState) teardown() {
	cs.conn.Close()
	s := cs.srv
	s.mu.Lock()
	delete(s.conns, cs.conn)
	var dead []*mq.Consumer
	for id := range cs.owned {
		if h, ok := s.handles[id]; ok {
			dead = append(dead, h.c)
			delete(s.handles, id)
		}
	}
	s.mu.Unlock()
	// Close outside the lock: group members leaving takes the group lock.
	for _, c := range dead {
		c.Close()
	}
}

// register files a new server-side consumer on a topic of parts partitions
// under a fresh handle id.
func (s *Server) register(cs *connState, c *mq.Consumer, parts int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.handles[id] = &serverHandle{c: c, owner: cs.conn, parts: parts}
	cs.owned[id] = struct{}{}
	return id
}

// lookup resolves a handle id to its consumer; nil if unknown (closed, or
// reaped when its conn dropped).
func (s *Server) lookup(id uint64) *mq.Consumer {
	if h := s.lookupHandle(id); h != nil {
		return h.c
	}
	return nil
}

func (s *Server) lookupHandle(id uint64) *serverHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handles[id]
}

// partitionOf resolves a handle and checks a wire-supplied partition against
// its topic: the broker indexes its per-partition tables with it unchecked.
func (s *Server) partitionOf(id, part uint64) (*mq.Consumer, int, error) {
	h := s.lookupHandle(id)
	if h == nil {
		return nil, 0, errUnknownHandle
	}
	if part >= uint64(h.parts) {
		return nil, 0, fmt.Errorf("%w: partition %d of %d", mq.ErrOutOfRange, part, h.parts)
	}
	return h.c, int(part), nil
}

func (s *Server) unregister(cs *connState, id uint64) *mq.Consumer {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(cs.owned, id)
	if h, ok := s.handles[id]; ok {
		delete(s.handles, id)
		return h.c
	}
	return nil
}

// appendErr encodes a failure response: status byte + message.
func appendErr(resp []byte, err error) []byte {
	resp = append(resp, statusOf(err))
	return appendStr(resp, err.Error())
}

// dispatch decodes one request frame and appends the response onto resp.
// Every number the frame supplies is range-checked here, before it reaches
// the bus: a malformed or hostile frame gets an error response, never a
// panic and never an allocation it did not pay for in frame bytes.
func (s *Server) dispatch(cs *connState, req, resp []byte) []byte {
	r := &cs.rd
	r.reset(req)
	op := r.byteVal()
	switch op {
	case opCreateTopic:
		name := r.str()
		parts := r.uvarint()
		retain := r.uvarint()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		if parts > maxPartitions {
			return appendErr(resp, fmt.Errorf("tcp: %d partitions exceeds the limit of %d", parts, maxPartitions))
		}
		if retain > maxRetain {
			return appendErr(resp, fmt.Errorf("tcp: retention of %d records exceeds the limit of %d", retain, maxRetain))
		}
		if err := s.bus.CreateTopic(name, int(parts), int(retain)); err != nil {
			return appendErr(resp, err)
		}
		return append(resp, stOK)

	case opTopicParts:
		name := r.str()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		n, err := s.bus.TopicPartitions(name)
		if err != nil {
			return appendErr(resp, err)
		}
		resp = append(resp, stOK)
		return appendUvarint(resp, uint64(n))

	case opSendTo, opSendBatch:
		return s.handleSend(cs, r, resp, op == opSendTo)

	case opOpenConsumer:
		topic := r.str()
		group := r.str()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		parts, err := s.bus.TopicPartitions(topic)
		if err != nil {
			return appendErr(resp, err)
		}
		var c *mq.Consumer
		if group == "" {
			c, err = mq.NewConsumer(s.bus.Broker(), topic)
		} else {
			c, err = mq.NewGroupConsumer(s.bus.Broker(), topic, group)
		}
		if err != nil {
			return appendErr(resp, err)
		}
		id := s.register(cs, c, parts)
		resp = append(resp, stOK)
		return appendUvarint(resp, id)

	case opFetch:
		return s.handleFetch(cs, r, resp)

	case opMeta:
		id := r.uvarint()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		c := s.lookup(id)
		if c == nil {
			return appendErr(resp, errUnknownHandle)
		}
		var flags byte
		if c.TopicClosed() {
			flags |= flagTopicClosed
		}
		assign := c.Assignment()
		resp = append(resp, stOK, flags)
		resp = appendUvarint(resp, uint64(c.Lag()))
		resp = appendUvarint(resp, uint64(len(assign)))
		for _, p := range assign {
			resp = appendUvarint(resp, uint64(p))
		}
		return resp

	case opCommitted:
		id := r.uvarint()
		wirePart := r.uvarint()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		c, part, err := s.partitionOf(id, wirePart)
		if err != nil {
			return appendErr(resp, err)
		}
		resp = append(resp, stOK)
		return appendUvarint(resp, uint64(c.Committed(part)))

	case opSeek:
		id := r.uvarint()
		wirePart := r.uvarint()
		off := int64(r.uvarint())
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		c, part, err := s.partitionOf(id, wirePart)
		if err != nil {
			return appendErr(resp, err)
		}
		if err := c.Seek(part, off); err != nil {
			return appendErr(resp, err)
		}
		return append(resp, stOK)

	case opCloseConsumer:
		id := r.uvarint()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		// Idempotent: closing an unknown (already-reaped) handle succeeds.
		if c := s.unregister(cs, id); c != nil {
			c.Close()
		}
		return append(resp, stOK)

	case opGroupLag:
		topic := r.str()
		group := r.str()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		lag, err := s.bus.GroupLag(topic, group)
		if err != nil {
			return appendErr(resp, err)
		}
		resp = append(resp, stOK)
		return appendUvarint(resp, uint64(lag))

	case opGroupCommitted:
		topic := r.str()
		group := r.str()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		offs, err := s.bus.GroupCommitted(topic, group)
		if err != nil {
			return appendErr(resp, err)
		}
		resp = append(resp, stOK)
		resp = appendUvarint(resp, uint64(len(offs)))
		for _, off := range offs {
			resp = appendUvarint(resp, uint64(off))
		}
		return resp

	case opFetchAt:
		topic := r.str()
		part := int(r.uvarint())
		from := int64(r.uvarint())
		max := int(min(r.uvarint(), maxFetch))
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		recs, err := s.bus.FetchInto(cs.fetchScratch[:0], topic, part, from, max)
		if err != nil {
			cs.fetchScratch = recs[:0]
			return appendErr(resp, err)
		}
		resp = append(resp, stOK)
		resp = appendUvarint(resp, uint64(len(recs)))
		for i := range recs {
			resp = appendRecord(resp, &recs[i])
		}
		cs.fetchScratch = recs[:0]
		return resp

	case opWaitReady:
		return s.handleWaitReady(r, resp)

	default:
		return appendErr(resp, errors.New("tcp: unknown op"))
	}
}

func (cs *connState) prod() transport.Producer {
	if cs.producer == nil {
		cs.producer = cs.srv.bus.NewProducer()
	}
	return cs.producer
}

// handleSend serves both sends: opSendBatch's frame, and opSendTo's, which
// is the same with a partition after the topic. It keeps the one copy of a
// batch the hop retains: the backing bus aliases Key/Value bytes in its log
// and the request buffer is recycled on the next frame, so the frame's
// record region is cloned once — unzeroed: append does not clear what it is
// about to overwrite — and the records are parsed out of the clone, their
// fields views into it.
func (s *Server) handleSend(cs *connState, r *wireReader, resp []byte, directed bool) []byte {
	topic := r.str()
	var part uint64
	if directed {
		part = r.uvarint()
	}
	n := r.count(3) // a record is at least two empty fields and an empty origin
	if r.err != nil {
		return appendErr(resp, r.err)
	}
	if part > math.MaxInt32 { // past any topic, and int(part) must not wrap
		return appendErr(resp, fmt.Errorf("%w: partition %d", mq.ErrOutOfRange, part))
	}
	r.reset(bytes.Clone(r.buf[r.off:]))
	recs := cs.batchScratch[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var rec mq.Record
		rec.Key = r.bytesVal()
		rec.Value = r.bytesVal()
		rec.Watermark = r.watermark()
		recs = append(recs, rec)
	}
	err := r.err
	switch {
	case err != nil:
	case directed:
		err = cs.prod().SendTo(topic, int(part), recs)
	default:
		err = cs.prod().SendBatch(topic, recs)
	}
	// Drop the aliases into the retained block before recycling the scratch.
	clear(recs)
	cs.batchScratch = recs[:0]
	if err != nil {
		return appendErr(resp, err)
	}
	return append(resp, stOK)
}

// blockCopy appends b onto block (whose capacity is pre-sized, so no
// reallocation splits the batch) and returns the copied view.
func blockCopy(block, b []byte) ([]byte, []byte) {
	start := len(block)
	block = append(block, b...)
	return block, block[start:len(block):len(block)]
}

// handleFetch runs one poll round against the handle's server-side
// consumer: non-blocking when waitMs is 0, otherwise parked up to waitMs
// (capped) in a real blocking PollInto so the client's long-poll inherits
// the broker's wakeup machinery instead of spinning. A poll that came back
// short of max from a consumer with no lag left is flagged drained: the
// client may take it that further fetches find nothing until an opWaitReady
// on the handle says ready. Lag is read after the poll, so an append — or a
// rebalance handing over a backlog — that the poll missed shows in it.
func (s *Server) handleFetch(cs *connState, r *wireReader, resp []byte) []byte {
	id := r.uvarint()
	max := int(min(r.uvarint(), maxFetch))
	waitMs := r.uvarint()
	if r.err != nil {
		return appendErr(resp, r.err)
	}
	c := s.lookup(id)
	if c == nil {
		return appendErr(resp, errUnknownHandle)
	}
	dst := cs.fetchScratch[:0]
	var recs []mq.Record
	var err error
	if waitMs == 0 {
		recs, err = c.TryPollInto(dst, max)
	} else {
		ctx, cancel := context.WithTimeout(s.baseCtx, time.Duration(min(waitMs, maxWaitMs))*time.Millisecond)
		recs, err = c.PollInto(ctx, dst, max)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// Long-poll timeout (or server shutdown): an empty round, not an
			// error — the client decides whether to re-issue.
			recs, err = dst, nil
		}
	}
	if err != nil {
		cs.fetchScratch = recs[:0]
		return appendErr(resp, err)
	}
	var flags byte
	if c.TopicClosed() {
		flags |= flagTopicClosed
	}
	if len(recs) < max && c.Lag() == 0 {
		flags |= flagDrained
	}
	resp = append(resp, stOK, flags)
	resp = appendUvarint(resp, uint64(len(recs)))
	for i := range recs {
		resp = appendRecord(resp, &recs[i])
	}
	cs.fetchScratch = recs[:0]
	return resp
}

// handleWaitReady is the long-poll behind client WaitChans: it answers as
// soon as the handle's consumer has something to fetch. Readiness is a level
// on the handle — its lag, read after both channels are armed — not an edge
// on the topic, so no wakeup can be lost however the request and the append
// interleave, an append to a partition another member owns wakes nobody
// (the handler looks and parks again), and a rebalance that hands this member
// a partition with a backlog wakes it without a new append. Otherwise it
// answers not-ready at the deadline or at shutdown, and closed with the topic.
func (s *Server) handleWaitReady(r *wireReader, resp []byte) []byte {
	id := r.uvarint()
	waitMs := r.uvarint()
	if r.err != nil {
		return appendErr(resp, r.err)
	}
	c := s.lookup(id)
	if c == nil {
		return appendErr(resp, errUnknownHandle)
	}
	deadline := time.Now().Add(time.Duration(min(waitMs, maxWaitMs)) * time.Millisecond)
	for {
		wait, reb := c.WaitChan(), c.RebalanceChan() // arm before reading the lag
		var flags byte
		if c.Lag() > 0 {
			flags |= flagReady
		}
		if c.TopicClosed() {
			flags |= flagTopicClosed
		}
		remaining := time.Until(deadline)
		if flags != 0 || remaining <= 0 || s.baseCtx.Err() != nil {
			return append(resp, stOK, flags)
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wait:
		case <-reb:
		case <-timer.C:
		case <-s.baseCtx.Done():
		}
		timer.Stop()
	}
}
