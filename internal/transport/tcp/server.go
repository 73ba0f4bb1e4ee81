package tcp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

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
	// maxFetch bounds the records of one opFetchAt; anything larger is
	// served as this many and the client reads again.
	maxFetch = 1 << 16
	// maxCredit bounds the push frames a subscription may have outstanding.
	maxCredit = 1 << 10
)

// maxPush bounds the records of one push frame: the streams pump's poll
// batch, so a frame is what one pump cycle takes.
const maxPush = 512

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

	// baseCtx is cancelled by Close, ending every parked push loop at once.
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

	// mu makes a push — claim and write — one step against the answers about
	// the handle: an opMeta or opCommitted answer is computed after every
	// push of a record it counts as fetched has been written.
	mu   sync.Mutex
	push atomic.Pointer[pusher] // nil until subscribed
}

// pusher is a subscription's state: the connection its pushes go out on,
// the push loop's credit, the scratch its pushes are built in, and what the
// client may still hand back (the last three under the handle's mu).
type pusher struct {
	cs      *connState
	credit  atomic.Int64
	more    chan struct{} // one slot: credit arrived
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{} // closed when the loop exits
	scratch []mq.Record
	out     gather

	// The client holds every push frame it has not credited back, and its
	// Close hands the untaken records of those back (Rewind): the broker
	// must still have them. held lists, for each such frame (numbered from
	// 1 in push order, freed counting the frames credited back), where each
	// partition's records in it start, oldest first; pinned[p] is the offset
	// the handle's consumer holds partition p from (mq.Consumer.Hold), -1
	// for none.
	held   []heldRun
	pushed uint64
	freed  uint64
	pinned []int64
}

// heldRun is where one partition's records start in one push frame.
type heldRun struct {
	frame uint64
	part  int
	from  int64
}

// hold notes the records of the push frame just built: the consumer holds
// each partition from its first record in the oldest frame still out.
func (pl *pusher) hold(c *mq.Consumer, recs []mq.Record) {
	pl.pushed++
	for i := range recs {
		r := &recs[i]
		if i > 0 && r.Partition == recs[i-1].Partition {
			continue
		}
		pl.held = append(pl.held, heldRun{frame: pl.pushed, part: r.Partition, from: r.Offset})
		if pl.pinned[r.Partition] < 0 {
			pl.pinned[r.Partition] = r.Offset
			c.Hold(r.Partition, r.Offset)
		}
	}
}

// release takes back n frames the client has freed, oldest first: each
// partition they held is held from its first record in the frames still
// out, or let go.
func (pl *pusher) release(c *mq.Consumer, n uint64) {
	pl.freed += n
	k := 0
	for k < len(pl.held) && pl.held[k].frame <= pl.freed {
		k++
	}
	rest := pl.held[k:]
	for _, gone := range pl.held[:k] {
		next := int64(-1)
		for _, r := range rest {
			if r.part == gone.part {
				next = r.from
				break
			}
		}
		if pl.pinned[gone.part] != next {
			pl.pinned[gone.part] = next
			c.Hold(gone.part, next)
		}
	}
	pl.held = pl.held[:copy(pl.held, rest)]
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
// dispatched one at a time, so the scratch buffers here are single-owner and
// recycle across frames. The connection's writes are not: push loops write
// their frames between the answers, and wmu keeps each frame whole.
type connState struct {
	srv  *Server
	conn net.Conn
	wmu  sync.Mutex // serializes writes: answers and push frames

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
	fr := frameReader{r: conn}
	var reqBuf []byte
	respBuf := make([]byte, frameStart, 64)
	for {
		req, n, err := fr.next(&reqBuf)
		s.ctr.bytesIn.Add(int64(n))
		if err != nil {
			return
		}
		// The response is built after the headroom its length goes into and
		// written from where it was built. The request is counted before the
		// answer goes out: a client that has its answer finds it counted.
		respBuf = s.dispatch(cs, req, respBuf[:frameStart])
		s.ctr.roundTrips.Add(1)
		if len(respBuf) > frameStart { // an opCredit has no answer
			// Counted before the write, as every frame is (gather.writeTo).
			frame := sealFrame(respBuf)
			s.ctr.bytesOut.Add(int64(len(frame)))
			cs.wmu.Lock()
			n, err = conn.Write(frame)
			cs.wmu.Unlock()
			if err != nil {
				s.ctr.bytesOut.Add(int64(n - len(frame)))
				return
			}
		}
	}
}

func (cs *connState) teardown() {
	cs.conn.Close() // a push loop blocked in a write returns
	s := cs.srv
	s.mu.Lock()
	delete(s.conns, cs.conn)
	var dead []*serverHandle
	for id := range cs.owned {
		if h, ok := s.handles[id]; ok {
			dead = append(dead, h)
			delete(s.handles, id)
		}
	}
	s.mu.Unlock()
	// Close outside the lock: group members leaving takes the group lock.
	for _, h := range dead {
		h.stopPush()
		h.c.Close()
	}
}

// write sends one gathered frame on the connection, between its answers.
func (cs *connState) write(g *gather) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return g.writeTo(cs.conn, &cs.srv.ctr.bytesOut)
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

// lookupHandle resolves a handle id; nil if unknown (closed, or reaped when
// its conn dropped).
func (s *Server) lookupHandle(id uint64) *serverHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handles[id]
}

// partitionOf resolves a handle and checks a wire-supplied partition against
// its topic: the broker indexes its per-partition tables with it unchecked.
func (s *Server) partitionOf(id, part uint64) (*serverHandle, int, error) {
	h := s.lookupHandle(id)
	if h == nil {
		return nil, 0, errUnknownHandle
	}
	if part >= uint64(h.parts) {
		return nil, 0, fmt.Errorf("%w: partition %d of %d", mq.ErrOutOfRange, part, h.parts)
	}
	return h, int(part), nil
}

func (s *Server) unregister(cs *connState, id uint64) *serverHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(cs.owned, id)
	if h, ok := s.handles[id]; ok {
		delete(s.handles, id)
		return h
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

	case opMeta:
		id := r.uvarint()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		h := s.lookupHandle(id)
		if h == nil {
			return appendErr(resp, errUnknownHandle)
		}
		h.mu.Lock()
		if pl := h.push.Load(); pl != nil {
			// Push what can be claimed now, so the answer follows it: a
			// poll that asks finds every send that completed before it.
			pushLocked(h, pl)
		}
		var flags byte
		if h.c.TopicClosed() {
			flags |= flagTopicClosed
		}
		assign := h.c.Assignment()
		lag := h.c.Lag()
		h.mu.Unlock()
		resp = append(resp, stOK, flags)
		resp = appendUvarint(resp, uint64(lag))
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
		h, part, err := s.partitionOf(id, wirePart)
		if err != nil {
			return appendErr(resp, err)
		}
		h.mu.Lock()
		off := h.c.Committed(part)
		h.mu.Unlock()
		resp = append(resp, stOK)
		return appendUvarint(resp, uint64(off))

	case opSeek:
		id := r.uvarint()
		wirePart := r.uvarint()
		off := int64(r.uvarint())
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		h, part, err := s.partitionOf(id, wirePart)
		if err != nil {
			return appendErr(resp, err)
		}
		if err := h.c.Seek(part, off); err != nil {
			return appendErr(resp, err)
		}
		return append(resp, stOK)

	case opCloseConsumer:
		return s.handleClose(cs, r, resp)

	case opSubscribe:
		return s.handleSubscribe(cs, r, resp)

	case opCredit:
		// Never answered: a grant for a handle that is gone, or a frame that
		// does not parse, is dropped.
		id := r.uvarint()
		n := r.uvarint()
		if r.err != nil || n > maxCredit {
			return resp
		}
		if h := s.lookupHandle(id); h != nil {
			h.mu.Lock()
			if pl := h.push.Load(); pl != nil {
				pl.release(h.c, n)
				pl.credit.Add(int64(n))
				select {
				case pl.more <- struct{}{}:
				default:
				}
			}
			h.mu.Unlock()
		}
		return resp

	case opUnsubscribe:
		id := r.uvarint()
		if r.err != nil {
			return appendErr(resp, r.err)
		}
		h := s.lookupHandle(id)
		if h == nil {
			return appendErr(resp, errUnknownHandle)
		}
		h.stopPush() // the answer goes out after its last push
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
// is the same with a partition after the topic. The records are parsed out
// of the request buffer, their fields views into it: the broker copies what
// it keeps before the send returns, so the buffer can take the next frame.
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
	// Drop the views of the request before recycling the scratch.
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

// handleSubscribe starts pushing a handle's records on the connection that
// opened it, credit frames ahead.
func (s *Server) handleSubscribe(cs *connState, r *wireReader, resp []byte) []byte {
	id := r.uvarint()
	credit := r.uvarint()
	if r.err != nil {
		return appendErr(resp, r.err)
	}
	if credit > maxCredit {
		return appendErr(resp, fmt.Errorf("tcp: credit of %d frames exceeds the limit of %d", credit, maxCredit))
	}
	h := s.lookupHandle(id)
	if h == nil || h.owner != cs.conn {
		return appendErr(resp, errUnknownHandle)
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	pl := &pusher{cs: cs, more: make(chan struct{}, 1), ctx: ctx, cancel: cancel, done: make(chan struct{}), pinned: make([]int64, h.parts)}
	for p := range pl.pinned {
		pl.pinned[p] = -1
	}
	pl.credit.Store(int64(credit))
	if !h.push.CompareAndSwap(nil, pl) {
		cancel()
		return appendErr(resp, errors.New("tcp: handle already subscribed"))
	}
	go pushLoop(h, pl)
	return append(resp, stOK)
}

// stopPush ends the handle's subscription: once it returns, no further push
// of the handle's is written.
func (h *serverHandle) stopPush() {
	h.mu.Lock()
	pl := h.push.Swap(nil)
	h.mu.Unlock()
	if pl != nil {
		pl.cancel()
		<-pl.done
	}
}

// pushLoop is one subscription: while the client has credit it parks in
// the handle's consumer's wake channel — the broker's own machinery, per
// partition and per rebalance — and pushes what it can claim.
func pushLoop(h *serverHandle, pl *pusher) {
	defer close(pl.done)
	for {
		for pl.credit.Load() <= 0 {
			select {
			case <-pl.more:
			case <-pl.ctx.Done():
				return
			}
		}
		wake := h.c.WaitChan() // armed before the claim: no append is missed
		h.mu.Lock()
		pushed, over, err := pushLocked(h, pl)
		h.mu.Unlock()
		switch {
		case err != nil || over:
			return
		case pushed:
			continue
		}
		select {
		case <-wake:
		case <-pl.ctx.Done():
			return
		}
	}
}

// pushLocked claims what the handle can fetch — committing at fetch, as an
// in-process poll does — and writes it as one push frame, if the
// subscription is still pl and has credit. A closed topic with nothing left
// to claim gets the empty frame that ends the stream (over). The claim lends
// the records' bytes until the handle's next claim, which is past the write
// that gathers them; the frame's hold keeps them until the client credits it
// back. Callers hold h.mu.
func pushLocked(h *serverHandle, pl *pusher) (pushed, over bool, err error) {
	if h.push.Load() != pl || pl.credit.Load() <= 0 {
		return false, false, nil
	}
	closed := h.c.TopicClosed() // before the claim: nothing is appended after it
	recs, err := h.c.TryPollInto(pl.scratch[:0], maxPush)
	if err != nil {
		return false, false, err
	}
	var flags byte
	if len(recs) == 0 {
		if !closed {
			return false, false, nil
		}
		flags, over = flagTopicClosed, true
	}
	pl.out.appendPush(flags, recs)
	pl.hold(h.c, recs)
	pl.credit.Add(-1)
	err = pl.cs.write(&pl.out)
	clear(recs) // drop the views of the log before recycling the scratch
	pl.scratch = recs[:0]
	return true, over, err
}

// handleClose closes a handle: its subscription ends, the rewinds the client
// sends hand back what it held and never took, and the member leaves. A
// rewind is [partition][from][end]: the records [from, end) of the
// partition, the tail of what the handle claimed there. Each is applied only
// where nobody has claimed past end (mq.Consumer.Rewind), and before the
// member leaves, so the rebalance hands the partition's next owner those
// records again — once.
func (s *Server) handleClose(cs *connState, r *wireReader, resp []byte) []byte {
	id := r.uvarint()
	if r.err != nil {
		return appendErr(resp, r.err)
	}
	// Idempotent: closing an unknown (already-reaped) handle succeeds.
	h := s.unregister(cs, id)
	if h == nil {
		return append(resp, stOK)
	}
	h.stopPush()
	n := 0
	if r.off < len(r.buf) {
		n = r.count(3)
	}
	for i := 0; i < n && r.err == nil; i++ {
		part, from, end := r.uvarint(), r.uvarint(), r.uvarint()
		if r.err == nil && part < uint64(h.parts) && from <= end && end <= math.MaxInt64 {
			h.c.Rewind(int(part), int64(from), int64(end))
		}
	}
	h.c.Close()
	if r.err != nil {
		return appendErr(resp, r.err)
	}
	return append(resp, stOK)
}
