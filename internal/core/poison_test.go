package core

import (
	"context"
	"testing"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/transport"
)

// Stale-alias poisoning for the transport's buffer-ownership rule. The rule
// lets three parties write bytes another party was just reading: a
// consumer's backend, into the frame a lending poll's records point at, at
// the next lending poll; an encoder, into its block once its send has
// returned; and the broker, into a segment it has freed once nothing holds
// it. Whether anybody still reads those bytes by then normally shows only
// when a frame, flush or append happens to land on them. The tests that run
// a tree over TCP make it show always: every byte that may be rewritten IS
// rewritten, with 0xA5, at the first instant the rule allows.

// poisonStaleBytes turns the encoder and broker halves on for the test (the
// consumer half is poisonBus, which dialNodeBus applies): every flush's block
// is scribbled once sent, and every segment of every broker — the TCP
// daemon's and an in-process session's — as it enters the free list. Call it
// before opening anything: members read the switch from their own
// goroutines.
func poisonStaleBytes(t *testing.T) {
	t.Helper()
	poisonSentBlocks = true
	mq.PoisonFreedSegments.Store(true)
	t.Cleanup(func() {
		poisonSentBlocks = false
		mq.PoisonFreedSegments.Store(false)
	})
}

// poisonBus wraps a bus whose polls lend (a network client) so that every
// consumer scribbles over the bytes it lent before it fetches again.
type poisonBus struct{ transport.Bus }

func (b poisonBus) NewConsumer(topic string) (transport.Consumer, error) {
	return poisoned(b.Bus.NewConsumer(topic))
}

func (b poisonBus) NewGroupConsumer(topic, group string) (transport.Consumer, error) {
	return poisoned(b.Bus.NewGroupConsumer(topic, group))
}

func poisoned(c transport.Consumer, err error) (transport.Consumer, error) {
	if err != nil {
		return nil, err
	}
	return &poisonConsumer{Consumer: c}, nil
}

// poisonConsumer remembers the Key/Value views its last lending poll handed
// out. Writing through them is the backend's right, exercised early: they
// point into the frame the next lending fetch overwrites anyway.
type poisonConsumer struct {
	transport.Consumer
	lent [][]byte
}

func (c *poisonConsumer) relend(dst []transport.Record, poll func() ([]transport.Record, error)) ([]transport.Record, error) {
	for _, b := range c.lent {
		for i := range b {
			b[i] = 0xA5
		}
	}
	c.lent = c.lent[:0]
	out, err := poll()
	for _, r := range out[len(dst):] {
		c.lent = append(c.lent, r.Key, r.Value)
	}
	return out, err
}

func (c *poisonConsumer) PollInto(ctx context.Context, dst []transport.Record, max int) ([]transport.Record, error) {
	return c.relend(dst, func() ([]transport.Record, error) { return c.Consumer.PollInto(ctx, dst, max) })
}

func (c *poisonConsumer) TryPollInto(dst []transport.Record, max int) ([]transport.Record, error) {
	return c.relend(dst, func() ([]transport.Record, error) { return c.Consumer.TryPollInto(dst, max) })
}
