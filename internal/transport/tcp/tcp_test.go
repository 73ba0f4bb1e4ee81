package tcp_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/conformance"
	"github.com/approxiot/approxiot/internal/transport/tcp"
)

// harness is one daemon + one client over a real TCP loopback socket.
type harness struct {
	broker *mq.Broker
	srv    *tcp.Server
	client *tcp.Client
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	b := mq.NewBroker()
	srv, err := tcp.Listen("127.0.0.1:0", transport.WrapBroker(b))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	cl, err := tcp.Dial(srv.Addr().String())
	if err != nil {
		srv.Close()
		t.Fatalf("Dial: %v", err)
	}
	h := &harness{broker: b, srv: srv, client: cl}
	t.Cleanup(func() {
		h.client.Close()
		h.srv.Close()
		h.broker.Close()
	})
	return h
}

// restartServer bounces the daemon on the same address with the same
// backing broker — the "broker process restarted, state intact" scenario
// the reconnect path exists for.
func (h *harness) restartServer(t *testing.T) {
	t.Helper()
	addr := h.srv.Addr().String()
	if err := h.srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	var err error
	for i := 0; i < 50; i++ {
		h.srv, err = tcp.Listen(addr, transport.WrapBroker(h.broker))
		if err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, err)
}

// send appends one record with value to topic "t" through SendBatch.
func send(t testing.TB, p transport.Producer, value []byte) {
	t.Helper()
	if err := p.SendBatch("t", []transport.Record{{Value: value}}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
}

// sendAlternating appends n one-byte records 0..n-1 to topic "t", record i
// to partition i%2.
func sendAlternating(t testing.TB, p transport.Producer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.SendTo("t", i%2, []transport.Record{{Value: []byte{byte(i)}}}); err != nil {
			t.Fatalf("SendTo: %v", err)
		}
	}
}

// TestTCPConformance holds the TCP backend to the same contract the
// in-memory backend defines — the tentpole's core acceptance gate.
func TestTCPConformance(t *testing.T) {
	conformance.Run(t, func(t *testing.T) conformance.Backend {
		h := newHarness(t)
		return conformance.Backend{
			Bus:             h.client,
			ShutdownBackend: h.broker.Close,
		}
	})
}

// TestReconnectStandaloneSeek: a standalone consumer survives a daemon
// bounce without re-delivering or losing records — the client re-opens its
// server-side handle and seeks it to the exact next offsets.
func TestReconnectStandaloneSeek(t *testing.T) {
	h := newHarness(t)
	bus := h.client
	if err := bus.CreateTopic("t", 2, 0); err != nil {
		t.Fatal(err)
	}
	sendAlternating(t, bus.NewProducer(), 10)
	c, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seen := map[byte]int{}
	got := 0
	var recs []transport.Record
	for got < 5 {
		recs, err = c.TryPollInto(recs[:0], 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			seen[r.Value[0]]++
			got++
		}
	}

	h.restartServer(t)

	deadline := time.Now().Add(10 * time.Second)
	for got < 10 && time.Now().Before(deadline) {
		recs, err = c.TryPollInto(recs[:0], 4)
		if err != nil {
			// At most the first post-bounce call may fail while the single
			// retry lands; anything persistent is a real failure.
			continue
		}
		for _, r := range recs {
			seen[r.Value[0]]++
			got++
		}
	}
	if got != 10 {
		t.Fatalf("consumed %d records across the bounce, want 10", got)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("record %d delivered %d times across reconnect", v, n)
		}
	}
	if rc := h.client.Counters().Reconnects; rc < 1 {
		t.Fatalf("Reconnects = %d, want >= 1 after a daemon bounce", rc)
	}
}

// TestReconnectGroupResume: a group consumer rejoins after a bounce and
// resumes from the group's committed offsets (auto-commit-at-fetch means
// nothing fetched before the bounce is re-delivered).
func TestReconnectGroupResume(t *testing.T) {
	h := newHarness(t)
	bus := h.client
	if err := bus.CreateTopic("t", 2, 0); err != nil {
		t.Fatal(err)
	}
	sendAlternating(t, bus.NewProducer(), 20)
	c, err := bus.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seen := map[byte]int{}
	var recs []transport.Record
	drainInto := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		count := 0
		for count < n && time.Now().Before(deadline) {
			recs, err = c.TryPollInto(recs[:0], 4)
			if err != nil {
				continue
			}
			for _, r := range recs {
				seen[r.Value[0]]++
				count++
			}
		}
		if count != n {
			t.Fatalf("drained %d, want %d", count, n)
		}
	}
	drainInto(8)
	h.restartServer(t)
	drainInto(12)

	if len(seen) != 20 {
		t.Fatalf("saw %d distinct records, want 20", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("record %d delivered %d times across group reconnect", v, n)
		}
	}
}

// TestProducerReconnect: a producer's send after a daemon bounce succeeds
// via the transparent redial.
func TestProducerReconnect(t *testing.T) {
	h := newHarness(t)
	bus := h.client
	if err := bus.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	p := bus.NewProducer()
	send(t, p, []byte("before"))
	h.restartServer(t)
	send(t, p, []byte("after"))
	tp, err := h.broker.Topic("t")
	if err != nil {
		t.Fatal(err)
	}
	if hw := tp.HighWatermark(0); hw != 2 {
		t.Fatalf("high watermark = %d, want 2", hw)
	}
}

// TestCounters: wire-byte accounting moves on both ends and send/poll
// error counters stay zero on a clean run.
func TestCounters(t *testing.T) {
	h := newHarness(t)
	bus := h.client
	if err := bus.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	p := bus.NewProducer()
	payload := make([]byte, 1024)
	for i := 0; i < 32; i++ {
		send(t, p, payload)
	}
	c, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	total := 0
	var recs []transport.Record
	for total < 32 {
		recs, err = c.PollInto(ctx, recs[:0], 16)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
	}

	ctr := h.client.Counters()
	if ctr.BytesOut < 32*1024 {
		t.Fatalf("client BytesOut = %d, below the payload floor", ctr.BytesOut)
	}
	if ctr.BytesIn < 32*1024 {
		t.Fatalf("client BytesIn = %d, below the payload floor", ctr.BytesIn)
	}
	if ctr.SendErrors != 0 || ctr.PollErrors != 0 {
		t.Fatalf("clean run counted errors: %+v", ctr)
	}
	sctr := h.srv.Counters()
	if sctr.BytesIn < 32*1024 || sctr.BytesOut < 32*1024 {
		t.Fatalf("server byte counters %+v below the payload floor", sctr)
	}
}

// TestPollHonorsContext: a blocking poll on an idle topic returns with the
// caller's context error within a long-poll round.
func TestPollHonorsContext(t *testing.T) {
	h := newHarness(t)
	bus := h.client
	if err := bus.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	c, err := bus.NewConsumer("t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.PollInto(ctx, nil, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PollInto on idle topic = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("PollInto overshot its context by %v", elapsed)
	}
}

// TestDialFailsFast: dialing a dead address errors instead of wedging.
func TestDialFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := tcp.Dial(addr); err == nil {
		t.Fatal("Dial to closed address succeeded")
	}
}

// TestServerCloseEndsParkedPushLoops: a daemon whose push loop sits parked
// in the broker's wake machinery — a subscribed consumer with nothing to
// fetch — ends it when it shuts down, at once, instead of waiting for data
// that will not come. The client takes the lost connection as news for its
// next poll, not as a closed topic and not as an error on any counter.
func TestServerCloseEndsParkedPushLoops(t *testing.T) {
	h := newHarness(t)
	if err := h.client.CreateTopic("t", 2, 0); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	c, err := h.client.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatalf("NewGroupConsumer: %v", err)
	}
	defer c.Close()
	c.WaitChan() // subscribes: the push loop starts
	if recs, err := c.TryPollInto(nil, 4); err != nil || len(recs) != 0 {
		t.Fatalf("TryPollInto on an idle topic = %d records, %v", len(recs), err)
	}
	time.Sleep(150 * time.Millisecond) // the push loop parked

	start := time.Now()
	if err := h.srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("Close took %v with a push loop parked", took)
	}
	if c.TopicClosed() {
		t.Fatal("shutdown reported the topic closed; the bus is still up")
	}
	if got := h.client.Counters(); got.SendErrors != 0 || got.PollErrors != 0 || got.Reconnects != 0 {
		t.Fatalf("client counted the shutdown as errors: %+v", got)
	}
}

// armTryWait is the streams pump's consuming loop: arm the wake channel, try
// a lending poll, wait (bounded) only if it found nothing. It hands every
// fetched batch to take and returns when take says it has enough or the
// deadline passes.
func armTryWait(t *testing.T, c transport.Consumer, until time.Time, take func([]transport.Record) (done bool)) {
	t.Helper()
	var scratch []transport.Record
	for time.Now().Before(until) {
		wake := c.WaitChan()
		var err error
		if scratch, err = c.TryPollInto(scratch[:0], 64); err != nil {
			t.Fatalf("TryPollInto: %v", err)
		}
		if len(scratch) > 0 {
			if take(scratch) {
				return
			}
			continue
		}
		select {
		case <-wake:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestIdleConsumerMakesNoTraffic: a subscribed consumer that has nothing to
// take asks nothing — its pump loop's bounded waits expire and its try-polls
// answer from its ring — while the daemon's push loop sits parked. After the
// first poll (the subscription and one ask), a second of that is no request
// at all on either end.
func TestIdleConsumerMakesNoTraffic(t *testing.T) {
	h := newHarness(t)
	if err := h.client.CreateTopic("t", 2, 0); err != nil {
		t.Fatal(err)
	}
	c, err := h.client.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	none := func([]transport.Record) bool {
		t.Error("an idle topic delivered records")
		return true
	}
	armTryWait(t, c, time.Now().Add(100*time.Millisecond), none)
	before, beforeSrv := h.client.Counters(), h.srv.Counters()
	armTryWait(t, c, time.Now().Add(time.Second), none)
	if got := h.client.Counters().RoundTrips - before.RoundTrips; got != 0 {
		t.Fatalf("an idle consumer issued %d requests in 1 s, want none", got)
	}
	if got := h.client.Counters().BytesOut - before.BytesOut; got != 0 {
		t.Fatalf("an idle consumer wrote %d bytes in 1 s, want none", got)
	}
	if got := h.srv.Counters().RoundTrips - beforeSrv.RoundTrips; got != 0 {
		t.Fatalf("the daemon served %d requests in an idle second, want none", got)
	}
}

// TestRoundTripsPerRecord pins the transport's overhead where it is worst:
// records arriving one at a time at a consumer that has drained in between,
// so each travels in a push of its own. What a record costs in requests is
// its send and, at most, half a credit grant — the ring grants freed frames
// back in batches of half its size — and nothing else: no fetch, no wait for
// readiness, no request to learn the consumer is drained. The daemon counts
// the same requests the client does.
func TestRoundTripsPerRecord(t *testing.T) {
	h := newHarness(t)
	if err := h.client.CreateTopic("t", 1, 0); err != nil {
		t.Fatal(err)
	}
	c, err := h.client.NewGroupConsumer("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WaitChan() // the subscription, before the count starts
	p := h.client.NewProducer()
	const records = 1000
	before, beforeSrv := h.client.Counters().RoundTrips, h.srv.Counters().RoundTrips
	for i := 0; i < records; i++ {
		if err := p.SendBatch("t", []transport.Record{{Value: []byte{byte(i)}}}); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
		got := 0
		armTryWait(t, c, time.Now().Add(10*time.Second), func(recs []transport.Record) bool {
			got += len(recs)
			return true
		})
		if got != 1 {
			t.Fatalf("record %d: took %d records", i, got)
		}
	}
	trips := h.client.Counters().RoundTrips - before
	// One ask after the subscription: the daemon may hold what it could not
	// push yet.
	if limit := int64(records + records/2 + 1); trips > limit {
		t.Fatalf("%d records cost %d requests, want <= %d (a send each, a credit grant per two pushes at most)", records, trips, limit)
	}
	// A credit grant gets no answer: the daemon may not have read the last
	// one yet.
	if srv := h.srv.Counters().RoundTrips - beforeSrv; srv > trips || srv < trips-1 {
		t.Fatalf("daemon served %d requests, client issued %d", srv, trips)
	}
}

// BenchmarkTCPHop is the transport's share of one hop on loopback, as the
// tree drives it: four 12 KB records encoded into a block the sender reuses,
// one SendBatch — gathered: the values go out from the block — lending polls
// until all four are back, pushed into the consumer's ring. The daemon's
// broker copies the records into segments it recycles, so once the log has
// reached its working size a hop allocates next to nothing; a block per
// hop — a copy of the request kept by the daemon, a copying poll — would add
// at least the 49.2 kB payload. CI's bench-smoke job gates B/op and
// allocs/op, never time.
func BenchmarkTCPHop(b *testing.B) {
	h := newHarness(b)
	// The engine's retention without a checkpoint store: the broker frees
	// what the group has consumed, so the log does not grow with b.N.
	if err := h.client.CreateTopic("t", 1, 1); err != nil {
		b.Fatal(err)
	}
	c, err := h.client.NewGroupConsumer("t", "g")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	p := h.client.NewProducer()
	const records, size = 4, 12 << 10
	var (
		payload = bytes.Repeat([]byte{0x5A}, size)
		block   = make([]byte, 0, records*(size+1))
		recs    = make([]transport.Record, records)
		scratch = make([]transport.Record, 0, records)
		ctx     = context.Background()
	)
	hop := func(i int) {
		block = block[:0]
		for j := range recs {
			at := len(block)
			block = append(block, 'a'+byte(j))
			block = append(block, payload...)
			block[len(block)-1] = byte(i)
			recs[j] = transport.Record{Key: block[at : at+1 : at+1], Value: block[at+1 : len(block) : len(block)]}
		}
		if err := p.SendBatch("t", recs); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < records; got += len(scratch) {
			if scratch, err = c.PollInto(ctx, scratch[:0], records); err != nil {
				b.Fatal(err)
			}
			for _, r := range scratch {
				if len(r.Value) != size || r.Value[size-1] != byte(i) {
					b.Fatalf("hop %d read back a %d-byte value ending % x", i, len(r.Value), r.Value[len(r.Value)-1:])
				}
			}
		}
	}
	for i := 0; i < 32; i++ {
		hop(i) // buffers on both sides, and the broker's segments, reach their working size
	}
	b.SetBytes(records * size)
	b.ReportAllocs()
	trips := h.client.Counters().RoundTrips
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop(i)
	}
	b.ReportMetric(float64(h.client.Counters().RoundTrips-trips)/float64(b.N), "roundtrips/op")
}
