package batching

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/container"
)

// windowProbe records how many PredictBatch calls overlap, failing or
// panicking on demand, to exercise the dispatch pipeline's window bound.
type windowProbe struct {
	latency   time.Duration
	panicOdds int // 1-in-N batches panics (0 disables)

	cur atomic.Int64
	max atomic.Int64
	rng struct {
		sync.Mutex
		*rand.Rand
	}
}

func newWindowProbe(latency time.Duration, panicOdds int) *windowProbe {
	p := &windowProbe{latency: latency, panicOdds: panicOdds}
	p.rng.Rand = rand.New(rand.NewSource(42))
	return p
}

func (p *windowProbe) Info() container.Info {
	return container.Info{Name: "probe", Version: 1}
}

func (p *windowProbe) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	cur := p.cur.Add(1)
	defer p.cur.Add(-1)
	for {
		prev := p.max.Load()
		if cur <= prev || p.max.CompareAndSwap(prev, cur) {
			break
		}
	}
	if p.panicOdds > 0 {
		p.rng.Lock()
		boom := p.rng.Intn(p.panicOdds) == 0
		p.rng.Unlock()
		if boom {
			panic("probe container exploded")
		}
	}
	if p.latency > 0 {
		time.Sleep(p.latency)
	}
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

func TestQueueInFlightWindow(t *testing.T) {
	q := NewQueue(&countingPredictor{}, QueueConfig{Controller: NewFixed(1)})
	if got := q.InFlight(); got != startWindow || q.adapt == nil {
		t.Fatalf("InFlight 0 starts at %d (controller %v), want a measured window starting at %d", got, q.adapt, startWindow)
	}
	q.Close()
	q = NewQueue(&countingPredictor{}, QueueConfig{Controller: NewFixed(1), InFlight: 1})
	if got := q.InFlight(); got != 1 || q.adapt != nil {
		t.Fatalf("InFlight = %d (controller %v), want 1 and pinned", got, q.adapt)
	}
	q.Close()
}

// TestCloseWhileWindowFull closes the queue while the collector is blocked
// on a full window: Close must wake it, fail what is still queued, and let
// the batches in flight deliver.
func TestCloseWhileWindowFull(t *testing.T) {
	m := newGateModel()
	q := NewQueue(m, QueueConfig{Controller: NewFixed(1), InFlight: 2})
	var flying []*ticket
	for i := int64(1); i <= 2; i++ {
		tk, err := startTicket(context.Background(), q, "", []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		flying = append(flying, tk)
		await(t, "slot filled", func() bool { return m.calls.Load() == i })
	}
	queued, err := startTicket(context.Background(), q, "", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	if res := <-queued.Done(); !errors.Is(res.Err, errQueueClosed) {
		t.Fatalf("queued behind a full window at Close: %+v, want errQueueClosed", res)
	}
	m.freeRun()
	<-closed
	for i, tk := range flying {
		if res := <-tk.Done(); res.Err != nil || res.Pred.Label != i+1 {
			t.Fatalf("in-flight ticket %d: %+v", i, res)
		}
	}
}

func TestQueuePipelineOverlapsBatches(t *testing.T) {
	// With a 4-slot window, single-query batches, and a slow container,
	// concurrent submitters must drive overlapping PredictBatch calls —
	// but never more than the window allows.
	probe := newWindowProbe(10*time.Millisecond, 0)
	q := NewQueue(probe, QueueConfig{Controller: NewFixed(1), InFlight: 4})
	defer q.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if p, err := q.Submit(context.Background(), []float64{float64(i)}); err != nil {
				t.Errorf("submit %d: %v", i, err)
			} else if p.Label != i {
				t.Errorf("submit %d got label %d", i, p.Label)
			}
		}(i)
	}
	wg.Wait()
	if max := probe.max.Load(); max < 2 {
		t.Fatalf("batches never overlapped: max in flight = %d", max)
	} else if max > 4 {
		t.Fatalf("window exceeded: %d batches in flight > InFlight 4", max)
	}
}

func TestQueueSerialWindowNeverOverlaps(t *testing.T) {
	probe := newWindowProbe(2*time.Millisecond, 0)
	q := NewQueue(probe, QueueConfig{Controller: NewFixed(1), InFlight: 1})
	defer q.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q.Submit(context.Background(), []float64{float64(i)})
		}(i)
	}
	wg.Wait()
	if max := probe.max.Load(); max != 1 {
		t.Fatalf("InFlight=1 overlapped batches: max in flight = %d", max)
	}
}

// slowFirstPredictor stalls inputs flagged with x[1] == 1 so later batches
// complete first.
type slowFirstPredictor struct {
	stall time.Duration
}

func (p *slowFirstPredictor) Info() container.Info {
	return container.Info{Name: "slow-first", Version: 1}
}

func (p *slowFirstPredictor) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	if len(xs) > 0 && len(xs[0]) > 1 && xs[0][1] == 1 {
		time.Sleep(p.stall)
	}
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

func TestQueueOutOfOrderBatchCompletion(t *testing.T) {
	// A slow batch dispatched first must not delay or corrupt results of
	// fast batches dispatched behind it: each caller gets its own answer,
	// whatever order the container finishes in.
	q := NewQueue(&slowFirstPredictor{stall: 100 * time.Millisecond},
		QueueConfig{Controller: NewFixed(1), InFlight: 4})
	defer q.Close()

	type completion struct {
		id    int
		label int
		err   error
	}
	order := make(chan completion, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, err := q.Submit(context.Background(), []float64{0, 1}) // stalled
		order <- completion{id: 0, label: p.Label, err: err}
	}()
	time.Sleep(20 * time.Millisecond) // let the slow batch dispatch first
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := q.Submit(context.Background(), []float64{float64(i), 0})
			order <- completion{id: i, label: p.Label, err: err}
		}(i)
	}
	wg.Wait()
	close(order)

	var sequence []completion
	for c := range order {
		if c.err != nil {
			t.Fatalf("request %d failed: %v", c.id, c.err)
		}
		if c.label != c.id {
			t.Fatalf("request %d got label %d", c.id, c.label)
		}
		sequence = append(sequence, c)
	}
	if len(sequence) != 3 {
		t.Fatalf("got %d completions", len(sequence))
	}
	// The stalled request was dispatched first but must complete last.
	if sequence[len(sequence)-1].id != 0 {
		t.Fatalf("completion order %v: stalled request did not finish last", sequence)
	}
}

// TestQueuePipelineStress hammers the pipelined dispatcher under -race:
// concurrent submitters, a container that randomly panics, and a Close
// racing mid-flight. Every accepted request must resolve exactly once —
// one Result (success or error) or a closed channel, never a hang and
// never a duplicate.
func TestQueuePipelineStress(t *testing.T) {
	probe := newWindowProbe(200*time.Microsecond, 5)
	q := NewQueue(probe, QueueConfig{Controller: NewFixed(8), InFlight: 4})

	const submitters = 24
	const perSubmitter = 40
	var accepted, resolved atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				tk, err := startTicket(context.Background(), q, "", []float64{float64(i)})
				if err != nil {
					continue // queue closed before acceptance: nothing owed
				}
				ch := tk.Done()
				accepted.Add(1)
				select {
				case res, ok := <-ch:
					if ok && res.Err == nil && res.Pred.Label != i {
						t.Errorf("wrong result: got %d want %d", res.Pred.Label, i)
					}
					// Exactly-once: a second Result must never arrive.
					select {
					case _, again := <-ch:
						if again {
							t.Error("request resolved twice")
						}
					default:
					}
					resolved.Add(1)
				case <-time.After(10 * time.Second):
					t.Error("request never resolved")
				}
			}
		}(s)
	}

	time.Sleep(15 * time.Millisecond)
	q.Close() // race shutdown against in-flight batches
	wg.Wait()

	if accepted.Load() != resolved.Load() {
		t.Fatalf("accepted %d requests but resolved %d", accepted.Load(), resolved.Load())
	}
	if resolved.Load() == 0 {
		t.Fatal("stress test resolved nothing")
	}
}
