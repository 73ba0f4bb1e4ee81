package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
)

// slowLeafBus holds every batched send into a leaf topic — a valve's push —
// for 20 ms, so pushes are mid-flight when a fence starts. A fence that did
// not wait them out would let the drain finish first: their records would
// land after the members stopped, or their counts after finalize.
type slowLeafBus struct{ transport.Bus }

func (b slowLeafBus) NewProducer() transport.Producer {
	return slowLeafProducer{b.Bus.NewProducer()}
}

type slowLeafProducer struct{ transport.Producer }

func (p slowLeafProducer) SendBatch(topic string, recs []mq.Record) error {
	if strings.HasPrefix(topic, "layer0-") { // topicName(0, i): a leaf topic
		time.Sleep(20 * time.Millisecond)
	}
	return p.Producer.SendBatch(topic, recs)
}

// fenceConfig is a census tree over a slowLeafBus for the fence tests: every
// item a push lands reaches the root, so the final result must account for
// exactly the pushes that returned nil. The backlog stays small so Close
// drains quickly, and in event time no chain ages out while a pusher is
// descheduled. The caller closes the bus.
func fenceConfig(eventTime bool) LiveConfig {
	cfg := sessionConfig(1)
	cfg.Bus = slowLeafBus{transport.NewMem()}
	cfg.Window = 10 * time.Millisecond
	cfg.MaxIngestLag = 256
	if eventTime {
		cfg.EventTime = true
		cfg.IdleTimeout = 30 * time.Second
	}
	return cfg
}

// pushTally counts what the session accepted.
type pushTally struct {
	mu    sync.Mutex
	items int64
	sum   float64
}

// pushRacing starts four goroutines that push 16-item batches through every
// slot in turn until stop closes. A goroutine ends at ErrSessionDraining or
// ErrSessionClosed; with detachOK it skips ErrNodeDetached and goes on to the
// next slot; any other error fails the test. The returned wait blocks until
// every goroutine has ended and returns what the session accepted. Values
// are small integers, so sums are exact in any order.
func pushRacing(t *testing.T, slots int, push func(slot int, items []stream.Item) error, stop <-chan struct{}, detachOK bool) (wait func() (int64, float64)) {
	t.Helper()
	var tally pushTally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				for slot := 0; slot < slots; slot++ {
					select {
					case <-stop:
						return
					default:
					}
					items := make([]stream.Item, 16)
					var sum float64
					for k := range items {
						items[k] = stream.Item{Source: stream.SourceID(fmt.Sprintf("s%d", slot)), Value: float64(1 + (g+k)%8)}
						sum += items[k].Value
					}
					switch err := push(slot, items); {
					case err == nil:
						tally.mu.Lock()
						tally.items += int64(len(items))
						tally.sum += sum
						tally.mu.Unlock()
					case detachOK && errors.Is(err, ErrNodeDetached):
					case errors.Is(err, ErrSessionDraining), errors.Is(err, ErrSessionClosed):
						return
					default:
						t.Errorf("push slot %d: %v", slot, err)
						return
					}
				}
			}
		}(g)
	}
	return func() (int64, float64) {
		wg.Wait()
		return tally.items, tally.sum
	}
}

// livePush pushes through an in-process session's valve.
func livePush(s *LiveSession) func(slot int, items []stream.Item) error {
	return func(slot int, items []stream.Item) error {
		in, err := s.Ingester(slot)
		if err != nil {
			return err
		}
		return in.Push(items...)
	}
}

// TestFenceCloseRacingPushes closes a census session while four goroutines
// push through every slot: each push either lands whole before the fence or
// is rejected, so the result accounts for exactly the accepted pushes — in
// Produced, in TruthSum and in the estimated count.
func TestFenceCloseRacingPushes(t *testing.T) {
	for _, eventTime := range []bool{false, true} {
		name := "processing-time"
		if eventTime {
			name = "event-time"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fenceConfig(eventTime)
			defer cfg.Bus.Close()
			s, err := OpenLive(nil, cfg)
			if err != nil {
				t.Fatalf("OpenLive: %v", err)
			}
			stop := make(chan struct{})
			wait := pushRacing(t, s.plan.Spec.Sources, livePush(s), stop, false)
			time.Sleep(50 * time.Millisecond)
			res, err := s.Close()
			close(stop)
			accepted, sum := wait()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			if res.Produced != accepted {
				t.Fatalf("produced %d, accepted %d", res.Produced, accepted)
			}
			if res.TruthSum != sum {
				t.Fatalf("truth sum %v, accepted values sum to %v", res.TruthSum, sum)
			}
			if res.LateDropped != 0 {
				t.Fatalf("%d items late-dropped", res.LateDropped)
			}
			assertCountInvariant(t, name, res.EstimateCount, float64(res.Produced))
		})
	}
}

// TestFenceFinishIngestRacingPushes is the node-tier form: a leaf tier's
// FinishIngest races four pushers, and the root tier's windows account for
// exactly the accepted pushes — none lands behind the end of stream.
func TestFenceFinishIngestRacingPushes(t *testing.T) {
	bus := slowLeafBus{transport.NewMem()}
	defer bus.Close()
	cfg := withBus(nodeTestConfig(topology.Testbed(), FractionBudget{Fraction: 1}, 0), bus)
	cfg.MaxIngestLag = 256
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	root, err := OpenNode(ctx, cfg, NodeTier{Root: true})
	if err != nil {
		t.Fatalf("OpenNode(root): %v", err)
	}
	defer root.Close()
	leaf, err := OpenNode(ctx, cfg, NodeTier{Layers: []int{0, 1}, Ingest: true})
	if err != nil {
		t.Fatalf("OpenNode(leaf): %v", err)
	}
	defer leaf.Close()

	stop := make(chan struct{})
	wait := pushRacing(t, cfg.Spec.Sources, func(slot int, items []stream.Item) error {
		return leaf.Push(slot, items...)
	}, stop, false)
	time.Sleep(50 * time.Millisecond)
	if err := leaf.FinishIngest(); err != nil {
		t.Fatalf("FinishIngest: %v", err)
	}
	close(stop)
	accepted, sum := wait()
	if err := root.WaitDone(ctx); err != nil {
		t.Fatalf("root WaitDone: %v", err)
	}
	if err := leaf.WaitDone(ctx); err != nil {
		t.Fatalf("leaf WaitDone: %v", err)
	}
	if err := leaf.Drain(ctx); err != nil {
		t.Fatalf("leaf Drain: %v", err)
	}
	leafRes, rootRes := leaf.Close(), root.Close()
	if leafRes.Produced != accepted {
		t.Fatalf("produced %d, accepted %d", leafRes.Produced, accepted)
	}
	if late := leafRes.LateDropped + rootRes.LateDropped; late != 0 {
		t.Fatalf("%d items late-dropped", late)
	}
	var input, est float64
	for _, w := range rootRes.Windows {
		input += w.EstimatedInput
		est += w.Result(query.Sum).Estimate.Value
	}
	assertCountInvariant(t, "node FinishIngest", input, float64(accepted))
	if rel := math.Abs(est-sum) / sum; rel > 1e-9 {
		t.Fatalf("census sum %v, accepted values sum to %v (rel %.2e)", est, sum, rel)
	}
}

// TestFenceRemoveEdgeNodeRacingPushes detaches a leaf while four pushers
// feed every slot: the detach fence waits out the pushes it let in, so when
// RemoveEdgeNode returns the detached topic holds no unconsumed record, and
// the final result accounts for exactly the accepted pushes.
func TestFenceRemoveEdgeNodeRacingPushes(t *testing.T) {
	cfg := fenceConfig(false)
	defer cfg.Bus.Close()
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	stop := make(chan struct{})
	wait := pushRacing(t, s.plan.Spec.Sources, livePush(s), stop, true)
	time.Sleep(30 * time.Millisecond)
	// Testbed maps sources {0,1} onto edge1-0.
	g := s.groupByID["edge1-0"]
	if err := s.RemoveEdgeNode("edge1-0"); err != nil {
		t.Fatalf("RemoveEdgeNode: %v", err)
	}
	unconsumed := func() int64 {
		lag, err := s.bus.GroupLag(g.desc.Topic, "edge1-0-in")
		if err != nil {
			t.Fatalf("GroupLag: %v", err)
		}
		return lag
	}
	if lag := unconsumed(); lag != 0 {
		t.Fatalf("%d records left unconsumed in the detached topic", lag)
	}
	time.Sleep(20 * time.Millisecond) // the pushers keep at it, detached slots rejected
	close(stop)
	accepted, sum := wait()
	if lag := unconsumed(); lag != 0 {
		t.Fatalf("%d records landed in the detached topic after the fence", lag)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.Produced != accepted {
		t.Fatalf("produced %d, accepted %d", res.Produced, accepted)
	}
	if res.TruthSum != sum {
		t.Fatalf("truth sum %v, accepted values sum to %v", res.TruthSum, sum)
	}
	assertCountInvariant(t, "detach race", res.EstimateCount, float64(res.Produced))
}

// TestNodeFinishIngestWakesPacedPush: a push sleeping off its lead over
// SourceRate holds its valve, and FinishIngest needs every valve. The fence
// wakes the sleep (drainCh) before it takes the mutexes, so FinishIngest
// returns at once instead of waiting out the two-second schedule, and the
// push it interrupted still lands whole.
func TestNodeFinishIngestWakesPacedPush(t *testing.T) {
	spec := topology.TreeSpec{
		Sources: 1,
		Layers: []topology.LayerSpec{
			{Name: "edge", Nodes: 1},
			{Name: "root", Nodes: 1},
		},
		Window: 100 * time.Millisecond,
	}
	bus := transport.NewMem()
	defer bus.Close()
	cfg := withBus(nodeTestConfig(spec, FractionBudget{Fraction: 1}, 0), bus)
	cfg.SourceRate = 1000
	sess, err := OpenNode(nil, cfg, NodeTier{Layers: []int{0}, Ingest: true})
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	defer sess.Close()
	pusher, err := sess.Pusher(0)
	if err != nil {
		t.Fatalf("Pusher: %v", err)
	}
	items := make([]stream.Item, 2000)
	for i := range items {
		items[i] = stream.Item{Value: 1}
	}
	pushed := make(chan error, 1)
	go func() { pushed <- pusher.Push(items...) }()
	// Sent counts the items before the pacing sleep starts.
	for deadline := time.Now().Add(5 * time.Second); pusher.Sent() < int64(len(items)); {
		if time.Now().After(deadline) {
			t.Fatalf("push never published; sent %d", pusher.Sent())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := sess.FinishIngest(); err != nil {
		t.Fatalf("FinishIngest: %v", err)
	}
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Fatalf("FinishIngest took %v: it waited out the push's pacing sleep", took)
	}
	if err := <-pushed; err != nil {
		t.Fatalf("interrupted push: %v", err)
	}
	if got := sess.Snapshot().Produced; got != int64(len(items)) {
		t.Fatalf("produced %d, want %d", got, len(items))
	}
}

// TestSessionCloseQuiescentIsPrompt: once nothing is in flight, Close is the
// drain's three probes a quarter window apart plus the stop — not a wait for
// the root to have been idle for several windows (800 ms at this window).
func TestSessionCloseQuiescentIsPrompt(t *testing.T) {
	cfg := sessionConfig(0.5)
	cfg.Window = 200 * time.Millisecond
	s, err := OpenLive(nil, cfg)
	if err != nil {
		t.Fatalf("OpenLive: %v", err)
	}
	pushGenerated(t, s, 3, 2000)
	for deadline := time.Now().Add(10 * time.Second); !s.quiescent(); {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never quiesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	res, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Fatalf("Close of a quiescent session took %v", took)
	}
	assertCountInvariant(t, "prompt close", res.EstimateCount, float64(res.Produced))
}
