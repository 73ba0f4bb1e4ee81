package tcp

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

// closedChan is returned by WaitChan when a poll need not wait: something is
// held already, or the consumer, its topic or its connection is done.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// clientConsumer is a pushed-to consumer. Its first poll (or WaitChan)
// subscribes its handle, and from then on the daemon pushes its records,
// credit allowing, into a ring of frame buffers a reader goroutine fills;
// polls lend records out of the oldest frames, and the frames the last poll
// emptied are freed at the next one and granted back to the daemon in
// batches. Nothing is pushed — nor committed — before the consumer first
// asks.
//
// The daemon commits what it pushes, so its committed offsets run ahead of
// what the poller has taken by the records the ring holds. The consumer
// answers for the processed view: Committed(p) is the first held offset of
// p, Lag counts the held records, and Close hands the untaken ones back.
type clientConsumer struct {
	cl    *Client
	topic string
	group string // "" = standalone
	rc    *rconn

	handle      atomic.Uint64
	closed      atomic.Bool
	topicClosed atomic.Bool // the push that ends the stream has landed
	watched     atomic.Bool // WaitChan has been called: polls answer from the ring
	subscribed  atomic.Bool // the first poll or WaitChan has subscribed the handle

	rd      wireReader  // the reader's: walks push frames
	answers chan answer // the reader's answers to this connection's calls
	answer  []byte      // the last answer's frame, valid until the next call
	seq     uint64      // pushes read before the last answer; under rc.mu

	rmu       sync.Mutex // guards everything below
	slots     [ringFrames + 1]frameSlot
	idle      []int         // slots no frame holds
	queue     []int         // pushed frames with records not yet taken, oldest first
	lent      []int         // slots the last poll took records from
	held      int           // slots holding a pushed frame
	freed     int           // slots freed since the last grant
	pushes    uint64        // push frames read
	starved   bool          // the daemon may hold records it had no credit to push
	waitCh    chan struct{} // closed on the next push or the reader's end
	rdone     chan struct{} // closed when the current reader exits
	broken    error         // why the last reader stopped, until a reconnect
	positions map[int]int64 // standalone: next offset per partition, as received
}

// frameSlot is one buffer of the ring and the records decoded from it, Key
// and Value pointing into buf.
type frameSlot struct {
	buf  []byte
	recs []mq.Record
	next int    // first record not yet taken
	seq  uint64 // the push's place in the stream
}

// answer is a response frame the reader met (in clientConsumer.answer) and
// how many pushes preceded it; conn is the connection it came on, so an
// answer from one since dropped is told from the call's own.
type answer struct {
	conn net.Conn
	seq  uint64
}

var _ transport.Consumer = (*clientConsumer)(nil)

func newClientConsumer(cl *Client, topic, group string) *clientConsumer {
	cc := &clientConsumer{
		cl:        cl,
		topic:     topic,
		group:     group,
		answers:   make(chan answer, 1),
		positions: make(map[int]int64),
	}
	for i := range cc.slots {
		cc.idle = append(cc.idle, i)
	}
	return cc
}

// reopen is the reconnect hook: it re-establishes the server-side consumer
// on a fresh conn and subscribes it. Group consumers rejoin (a new member
// under a bumped generation; committed offsets are group-owned and
// survive); standalone consumers re-seek every position the pushes reached,
// so no record is re-delivered. What the ring holds stays, and the credit is
// what it has free.
func (cc *clientConsumer) reopen(raw rawCall) error {
	req := []byte{opOpenConsumer}
	req = appendStr(req, cc.topic)
	req = appendStr(req, cc.group)
	r, err := raw(req)
	if err != nil {
		return err
	}
	h := r.uvarint()
	if r.err != nil {
		return r.err
	}
	cc.handle.Store(h)
	cc.rmu.Lock()
	seeks := make(map[int]int64, len(cc.positions))
	for p, off := range cc.positions {
		seeks[p] = off
	}
	cc.rmu.Unlock()
	for p, off := range seeks {
		req := []byte{opSeek}
		req = appendUvarint(req, h)
		req = appendUvarint(req, uint64(p))
		req = appendUvarint(req, uint64(off))
		if _, err := raw(req); err != nil {
			return err
		}
	}
	if !cc.subscribed.Load() {
		return nil
	}
	_, err = raw(appendUvarint(appendUvarint([]byte{opSubscribe}, h), uint64(cc.credit())))
	return err
}

// credit is what a subscription grants: the push slots the ring has free.
// The daemon may then hold records it has not pushed, so the next poll that
// finds the ring empty asks.
func (cc *clientConsumer) credit() int {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	cc.freed, cc.starved = 0, true
	return ringFrames - cc.held
}

// subscribe starts the daemon pushing to this consumer, once.
func (cc *clientConsumer) subscribe() error {
	if cc.subscribed.Load() {
		return nil
	}
	err := cc.rc.call(func(g *gather) {
		g.hdr = appendUvarint(append(g.hdr, opSubscribe), cc.handle.Load())
		g.hdr = appendUvarint(g.hdr, uint64(cc.credit()))
	}, nil)
	if err == nil {
		cc.subscribed.Store(true)
	}
	return err
}

// startReader launches the reader of a freshly dialed connection.
func (cc *clientConsumer) startReader(conn net.Conn) {
	done := make(chan struct{})
	cc.rmu.Lock()
	cc.rdone, cc.broken = done, nil
	cc.rmu.Unlock()
	select {
	case <-cc.answers: // the last connection's, never collected
	default:
	}
	go cc.read(conn, done)
}

// awaitReader waits for the current reader, whose connection is gone, to
// exit: it may still hold a slot.
func (cc *clientConsumer) awaitReader() {
	cc.rmu.Lock()
	done := cc.rdone
	cc.rmu.Unlock()
	if done != nil {
		<-done
	}
}

// read is a connection's reader: it reads every frame into a free slot and
// lands it, until the connection fails or closes.
func (cc *clientConsumer) read(conn net.Conn, done chan struct{}) {
	fr := frameReader{r: conn}
	var err error
	for err == nil {
		i := cc.takeSlot()
		if i < 0 {
			err = errors.New("tcp: the daemon pushed past its credit")
			break
		}
		var frame []byte
		var n int
		frame, n, err = fr.next(&cc.slots[i].buf)
		cc.cl.ctr.bytesIn.Add(int64(n))
		if err != nil {
			cc.rmu.Lock()
			cc.releaseLocked(i, false)
			cc.rmu.Unlock()
			break
		}
		err = cc.land(conn, i, frame)
	}
	cc.rc.dropLive(conn)
	cc.rmu.Lock()
	if !cc.closed.Load() {
		cc.broken = err
	}
	cc.fireLocked()
	cc.rmu.Unlock()
	close(done)
}

// takeSlot takes a free slot for the next frame, -1 if none is free: the
// ring has one slot beyond the credit, so a daemon that keeps to its credit
// always finds one.
func (cc *clientConsumer) takeSlot() int {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	if len(cc.idle) == 0 {
		return -1
	}
	i := cc.idle[len(cc.idle)-1]
	cc.idle = cc.idle[:len(cc.idle)-1]
	return i
}

// releaseLocked returns slot i to the free list; a pushed frame's slot
// counts toward the next grant. Callers hold rmu.
func (cc *clientConsumer) releaseLocked(i int, pushed bool) {
	cc.idle = append(cc.idle, i)
	if pushed {
		cc.held--
		cc.freed++
	}
}

// land takes the frame the reader read into slot i. An answer is copied out
// for the call waiting on it and the slot freed; a push is decoded in place
// and queued, its records lent from the slot until the poll after the one
// that takes the last of them.
func (cc *clientConsumer) land(conn net.Conn, i int, frame []byte) error {
	if len(frame) == 0 || frame[0] != pushMark {
		cc.answer = append(cc.answer[:0], frame...)
		cc.rmu.Lock()
		cc.releaseLocked(i, false)
		a := answer{conn: conn, seq: cc.pushes}
		cc.rmu.Unlock()
		select {
		case cc.answers <- a:
			return nil
		default:
			return errors.New("tcp: an answer to no call")
		}
	}
	s := &cc.slots[i]
	cc.rd.reset(frame[1:])
	flags := cc.rd.byteVal()
	recs, err := decodeRecords(&cc.rd, s.recs[:0], true)
	s.recs, s.next = recs, 0
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	if err != nil {
		cc.releaseLocked(i, false)
		return err
	}
	cc.pushes++
	cc.held++
	if cc.held+cc.freed >= ringFrames {
		cc.starved = true // that was the daemon's last credit
	}
	if len(recs) == 0 {
		cc.releaseLocked(i, true)
	} else {
		s.seq = cc.pushes
		cc.queue = append(cc.queue, i)
		if cc.group == "" {
			for _, r := range recs {
				cc.positions[r.Partition] = r.Offset + 1
			}
		}
	}
	if flags&flagTopicClosed != 0 {
		cc.topicClosed.Store(true)
	}
	cc.fireLocked()
	return nil
}

// fireLocked wakes the poller armed on waitCh. Callers hold rmu.
func (cc *clientConsumer) fireLocked() {
	if cc.waitCh != nil {
		close(cc.waitCh)
		cc.waitCh = nil
	}
}

// exchange writes a call's request on the subscribed connection and waits
// for the reader to meet its answer. The read deadline it sets bounds the
// wait: a daemon that does not answer within ioGrace has its connection
// dropped under the reader. Callers hold rc.mu.
func (cc *clientConsumer) exchange(conn net.Conn, g *gather) ([]byte, error) {
	cc.rmu.Lock()
	done := cc.rdone
	cc.rmu.Unlock()
	deadline := time.Now().Add(ioGrace)
	conn.SetWriteDeadline(deadline)
	conn.SetReadDeadline(deadline)
	if err := g.writeTo(conn, &cc.cl.ctr.bytesOut); err != nil {
		return nil, err
	}
	cc.cl.ctr.roundTrips.Add(1)
	for {
		var a answer
		select {
		case a = <-cc.answers:
		case <-done:
			select {
			case a = <-cc.answers: // met just before the reader ended
			default:
				return nil, io.ErrUnexpectedEOF
			}
		}
		if a.conn != conn {
			continue
		}
		conn.SetReadDeadline(time.Time{})
		cc.seq = a.seq
		return cc.answer, nil
	}
}

// grant returns freed slots to the daemon as credit: once half the ring is
// free, or with all set, whatever is. A grant has no answer. One lost with
// its connection is not re-sent: the subscription on the next connection
// grants what is free.
func (cc *clientConsumer) grant(all bool) {
	cc.rmu.Lock()
	due := cc.freed >= ringFrames/2 || all && cc.freed > 0
	cc.rmu.Unlock()
	if !due {
		return
	}
	rc := cc.rc
	rc.mu.Lock()
	defer rc.mu.Unlock()
	cc.rmu.Lock()
	n := cc.freed
	cc.freed = 0
	cc.rmu.Unlock()
	conn, err := rc.liveConn()
	if n == 0 || err != nil || conn == nil {
		return
	}
	g := &rc.req
	g.reset()
	g.hdr = append(g.hdr, opCredit)
	g.hdr = appendUvarint(appendUvarint(g.hdr, cc.handle.Load()), uint64(n))
	conn.SetWriteDeadline(time.Now().Add(ioGrace))
	if err := g.writeTo(conn, &cc.cl.ctr.bytesOut); err != nil {
		rc.dropLive(conn) // the reader ends, and the next poll reconnects
		return
	}
	cc.cl.ctr.roundTrips.Add(1)
}

// ask has the daemon push what it can claim now and waits for the answer
// that follows that push — after granting every freed slot, so it has the
// credit to.
func (cc *clientConsumer) ask() error {
	cc.rmu.Lock()
	cc.starved = false
	cc.rmu.Unlock()
	cc.grant(true)
	if _, _, err := cc.meta(); err != nil {
		return cc.pollErr(err)
	}
	return nil
}

// pollErr counts a failed poll and passes its error on.
func (cc *clientConsumer) pollErr(err error) error {
	if errors.Is(err, mq.ErrClosed) {
		cc.topicClosed.Store(true)
	} else {
		cc.cl.ctr.pollErrs.Add(1)
	}
	return err
}

// take frees the frames the last poll emptied — their records are dead now
// — and lends up to max records out of the oldest held frames onto dst. It
// reports whether the daemon may hold records it could not push, and why
// the reader stopped if it has.
func (cc *clientConsumer) take(dst []mq.Record, max int) ([]mq.Record, bool, error) {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	for _, i := range cc.lent {
		if s := &cc.slots[i]; s.next == len(s.recs) {
			cc.releaseLocked(i, true)
		}
	}
	cc.lent = cc.lent[:0]
	out := dst
	for len(cc.queue) > 0 && len(out)-len(dst) < max {
		i := cc.queue[0]
		s := &cc.slots[i]
		k := min(len(s.recs)-s.next, max-(len(out)-len(dst)))
		out = append(out, s.recs[s.next:s.next+k]...)
		s.next += k
		cc.lent = append(cc.lent, i)
		if s.next == len(s.recs) {
			cc.queue = cc.queue[:copy(cc.queue, cc.queue[1:])]
		}
	}
	return out, cc.starved, cc.broken
}

// poll is one look at the ring: take and grant; with nothing held, reconnect
// if the connection is gone, and ask the daemon if it may hold records it
// had no credit to push.
func (cc *clientConsumer) poll(dst []mq.Record, max int) ([]mq.Record, error) {
	if cc.closed.Load() {
		return dst, mq.ErrClosed
	}
	if max <= 0 {
		max = 1
	}
	if err := cc.subscribe(); err != nil {
		return dst, cc.pollErr(err)
	}
	out, starved, broken := cc.take(dst, max)
	cc.grant(false)
	if len(out) > len(dst) {
		return out, nil
	}
	if broken != nil {
		if err := cc.rc.connect(); err != nil {
			return dst, cc.pollErr(err)
		}
		starved = true
	}
	if !starved {
		return dst, nil
	}
	if err := cc.ask(); err != nil {
		return dst, err
	}
	out, _, _ = cc.take(dst, max)
	return out, nil
}

// PollInto lends, as TryPollInto does, and waits for a push while the ring
// holds nothing.
func (cc *clientConsumer) PollInto(ctx context.Context, dst []mq.Record, max int) ([]mq.Record, error) {
	for {
		wake := cc.arm()
		out, err := cc.poll(dst, max)
		if err != nil || len(out) > len(dst) {
			return out, err
		}
		if cc.topicClosed.Load() {
			return dst, mq.ErrClosed
		}
		select {
		case <-ctx.Done():
			return dst, ctx.Err()
		case <-wake:
		}
	}
}

// TryPollInto lends: the records' Key/Value point into a pushed frame and
// are valid until the next PollInto or TryPollInto on this consumer. A
// consumer that has never called WaitChan asks the daemon first, whose
// answer follows a push of whatever it could claim — so a TryPollInto issued
// after a send completed finds that record. One that has called WaitChan
// answers from the ring: a push, when it lands, fires the channel.
func (cc *clientConsumer) TryPollInto(dst []mq.Record, max int) ([]mq.Record, error) {
	if !cc.watched.Load() && !cc.closed.Load() {
		if err := cc.subscribe(); err != nil {
			return dst, cc.pollErr(err)
		}
		if err := cc.ask(); err != nil {
			return dst, err
		}
	}
	return cc.poll(dst, max)
}

// WaitChan returns a channel closed when a push lands (or already closed if
// the ring holds records, or the consumer, its topic or its connection is
// done). The daemon's push loop parks in the broker's own wake machinery —
// per partition, and per rebalance — so the channel fires a network hop
// after an append to an owned partition or a rebalance that hands this
// consumer a backlog; it is never lost.
func (cc *clientConsumer) WaitChan() <-chan struct{} {
	cc.watched.Store(true)
	if cc.subscribe() != nil {
		return closedChan // the poll that follows reports it
	}
	return cc.arm()
}

func (cc *clientConsumer) arm() <-chan struct{} {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	if cc.closed.Load() || cc.topicClosed.Load() || cc.broken != nil || len(cc.queue) > 0 {
		return closedChan
	}
	if cc.waitCh == nil {
		cc.waitCh = make(chan struct{})
	}
	return cc.waitCh
}

// TopicClosed reports that the push ending the stream has landed: the topic
// is shut down and everything this consumer could claim has been pushed.
func (cc *clientConsumer) TopicClosed() bool {
	return cc.topicClosed.Load()
}

// heldBefore calls fn on every record held and not yet taken, in stream
// order, of the first seq pushes, until fn returns false.
func (cc *clientConsumer) heldBefore(seq uint64, fn func(r *mq.Record) bool) {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	for _, i := range cc.queue {
		s := &cc.slots[i]
		if s.seq > seq {
			return
		}
		for j := s.next; j < len(s.recs); j++ {
			if !fn(&s.recs[j]) {
				return
			}
		}
	}
}

// meta asks for the handle's lag and assignment. Its answer comes after a
// push of what the daemon could claim, so the lag it reports — the daemon's
// plus the records held here — counts every record not yet taken.
func (cc *clientConsumer) meta() (lag int64, assign []int, err error) {
	err = cc.rc.call(func(g *gather) {
		g.hdr = appendUvarint(append(g.hdr, opMeta), cc.handle.Load())
	}, func(r *wireReader) error {
		r.byteVal() // flags: the push stream carries the topic's closing
		lag = int64(r.uvarint())
		n := r.count(1)
		if r.err != nil {
			return r.err
		}
		assign = make([]int, n)
		for i := range assign {
			assign[i] = int(r.uvarint())
		}
		cc.heldBefore(cc.seq, func(*mq.Record) bool { lag++; return true })
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

// Lag counts the records the daemon holds for this consumer and those the
// ring holds untaken.
func (cc *clientConsumer) Lag() int64 {
	lag, _, err := cc.meta()
	if err != nil {
		return 0
	}
	return lag
}

// Committed is the processed view of partition p: the first offset of p the
// ring holds untaken, else the daemon's committed offset. The daemon's
// answer follows every push of a record it counts as fetched, so every
// record between the two is in the ring when it is read: a checkpoint cut
// taken between polls is exact.
func (cc *clientConsumer) Committed(p int) int64 {
	var off int64
	err := cc.rc.call(func(g *gather) {
		g.hdr = appendUvarint(append(g.hdr, opCommitted), cc.handle.Load())
		g.hdr = appendUvarint(g.hdr, uint64(p))
	}, func(r *wireReader) error {
		off = int64(r.uvarint())
		cc.heldBefore(cc.seq, func(rec *mq.Record) bool {
			if rec.Partition != p {
				return true
			}
			off = rec.Offset
			return false
		})
		return r.err
	})
	if err != nil {
		return 0
	}
	return off
}

// rewind is the tail of one partition's records the ring holds untaken:
// [from, end).
type rewind struct {
	part      int
	from, end int64
}

// untaken returns, per partition, the last run of consecutive offsets the
// ring holds untaken. Only the last can be handed back: the daemon's
// committed offset stands at its end unless another member has claimed
// since.
func (cc *clientConsumer) untaken() []rewind {
	var rw []rewind
	cc.heldBefore(^uint64(0), func(r *mq.Record) bool {
		for i := range rw {
			if rw[i].part != r.Partition {
				continue
			}
			if rw[i].end != r.Offset {
				rw[i].from = r.Offset
			}
			rw[i].end = r.Offset + 1
			return true
		}
		rw = append(rw, rewind{part: r.Partition, from: r.Offset, end: r.Offset + 1})
		return true
	})
	return rw
}

// Close releases the consumer. The subscription ends first; its answer comes
// after the last push, so the ring then holds everything pushed and not
// taken, and the close hands that back: the daemon rewinds the group's
// offsets over it, where nobody has claimed past, before the member leaves.
// The next owner of each partition gets those records, once.
func (cc *clientConsumer) Close() {
	if cc.closed.Swap(true) {
		return
	}
	var rw []rewind
	if cc.subscribed.Load() && cc.rc.call(func(g *gather) {
		g.hdr = appendUvarint(append(g.hdr, opUnsubscribe), cc.handle.Load())
	}, nil) == nil && cc.group != "" {
		rw = cc.untaken()
	}
	_ = cc.rc.call(func(g *gather) {
		g.hdr = appendUvarint(append(g.hdr, opCloseConsumer), cc.handle.Load())
		if len(rw) == 0 {
			return
		}
		g.hdr = appendUvarint(g.hdr, uint64(len(rw)))
		for _, w := range rw {
			g.hdr = appendUvarint(g.hdr, uint64(w.part))
			g.hdr = appendUvarint(appendUvarint(g.hdr, uint64(w.from)), uint64(w.end))
		}
	}, nil)
	cc.rc.close()
	cc.rmu.Lock()
	cc.fireLocked()
	cc.rmu.Unlock()
}
