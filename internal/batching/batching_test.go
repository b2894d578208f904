package batching

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/container"
)

func TestAIMDDefaults(t *testing.T) {
	a := NewAIMD(AIMDConfig{SLO: 20 * time.Millisecond}).(*aimd)
	if a.Name() != "aimd" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.MaxBatch() != 1 {
		t.Fatalf("initial cap = %d", a.MaxBatch())
	}
}

func TestAIMDAdditiveIncrease(t *testing.T) {
	a := NewAIMD(AIMDConfig{SLO: 20 * time.Millisecond, Additive: 2})
	for i := 0; i < 5; i++ {
		a.Observe(a.MaxBatch(), time.Millisecond)
	}
	if got := a.MaxBatch(); got != 11 {
		t.Fatalf("cap = %d, want 11", got)
	}
}

func TestAIMDIgnoresUnderCapProbes(t *testing.T) {
	a := NewAIMD(AIMDConfig{SLO: 20 * time.Millisecond}).(*aimd)
	a.cap = 10
	a.Observe(3, time.Millisecond) // small batch, under SLO: no info
	if got := a.MaxBatch(); got != 10 {
		t.Fatalf("cap = %d, want 10", got)
	}
}

func TestAIMDMultiplicativeBackoff(t *testing.T) {
	a := NewAIMD(AIMDConfig{SLO: 10 * time.Millisecond}).(*aimd)
	a.cap = 100
	a.Observe(100, 50*time.Millisecond)
	if got := a.MaxBatch(); got != 90 {
		t.Fatalf("cap = %d, want 90 (10%% backoff)", got)
	}
	// Backoff applies even for small batches that overrun.
	a.Observe(1, 50*time.Millisecond)
	if got := a.MaxBatch(); got != 81 {
		t.Fatalf("cap = %d, want 81", got)
	}
}

func TestAIMDFloorAndCeiling(t *testing.T) {
	a := NewAIMD(AIMDConfig{SLO: time.Millisecond}).(*aimd)
	a.cap = 2
	for i := 0; i < 50; i++ {
		a.Observe(a.MaxBatch(), time.Second)
	}
	if got := a.MaxBatch(); got != 1 {
		t.Fatalf("cap floor = %d, want 1", got)
	}
	a.cap = capCeiling - 3
	for i := 0; i < 50; i++ {
		a.Observe(a.MaxBatch(), time.Microsecond)
	}
	if got := a.MaxBatch(); got != capCeiling {
		t.Fatalf("cap ceiling = %d, want %d", got, capCeiling)
	}
}

func TestAIMDConvergesToProfileOptimum(t *testing.T) {
	// Simulated container: latency = 1ms + 0.1ms * batch. With a 10ms
	// SLO the optimal batch is 90. AIMD must converge near it.
	slo := 10 * time.Millisecond
	lat := func(n int) time.Duration {
		return time.Millisecond + time.Duration(n)*100*time.Microsecond
	}
	a := NewAIMD(AIMDConfig{SLO: slo})
	for i := 0; i < 2000; i++ {
		n := a.MaxBatch()
		a.Observe(n, lat(n))
	}
	got := a.MaxBatch()
	if got < 75 || got > 95 {
		t.Fatalf("converged cap = %d, want ~90", got)
	}
}

func TestQuantileRegConvergesToProfileOptimum(t *testing.T) {
	slo := 10 * time.Millisecond
	lat := func(n int) time.Duration {
		return time.Millisecond + time.Duration(n)*100*time.Microsecond
	}
	q := NewQuantileReg(QuantileRegConfig{SLO: slo})
	for i := 0; i < 2000; i++ {
		n := q.MaxBatch()
		q.Observe(n, lat(n))
	}
	got := q.MaxBatch()
	if got < 70 || got > 110 {
		t.Fatalf("converged cap = %d, want ~90", got)
	}
}

func TestQuantileRegName(t *testing.T) {
	q := NewQuantileReg(QuantileRegConfig{SLO: time.Millisecond})
	if q.Name() != "quantile-regression" {
		t.Fatalf("Name = %q", q.Name())
	}
	if q.MaxBatch() != 1 {
		t.Fatalf("initial cap = %d", q.MaxBatch())
	}
}

func TestFixedController(t *testing.T) {
	f := NewFixed(0)
	if f.MaxBatch() != 1 || f.Name() != "no-batching" {
		t.Fatalf("got %d %q", f.MaxBatch(), f.Name())
	}
	f.Observe(1, time.Hour) // must not adapt
	if f.MaxBatch() != 1 {
		t.Fatal("fixed controller adapted")
	}
	f2 := NewFixed(64)
	if f2.MaxBatch() != 64 || f2.Name() != "fixed" {
		t.Fatalf("got %d %q", f2.MaxBatch(), f2.Name())
	}
}

// countingPredictor records batch sizes and simulates per-batch latency.
type countingPredictor struct {
	mu      sync.Mutex
	batches []int
	perItem time.Duration
	fixed   time.Duration
	fail    bool
}

func (c *countingPredictor) Info() container.Info {
	return container.Info{Name: "counting", Version: 1}
}

func (c *countingPredictor) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	c.mu.Lock()
	c.batches = append(c.batches, len(xs))
	c.mu.Unlock()
	if c.fail {
		return nil, errors.New("synthetic failure")
	}
	if d := c.fixed + time.Duration(len(xs))*c.perItem; d > 0 {
		time.Sleep(d)
	}
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

func (c *countingPredictor) Batches() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.batches...)
}

func TestQueueSubmitDeliversCorrectResults(t *testing.T) {
	pred := &countingPredictor{}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4)})
	defer q.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := q.Submit(context.Background(), []float64{float64(i)})
			if err != nil {
				errs <- err
				return
			}
			if p.Label != i {
				errs <- fmt.Errorf("query %d got label %d", i, p.Label)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, b := range pred.Batches() {
		if b > 4 {
			t.Fatalf("batch of %d exceeds cap 4", b)
		}
	}
}

func TestQueueBatchesUnderLoad(t *testing.T) {
	// With a slow container and many concurrent submitters, batches
	// should actually form (size > 1).
	pred := &countingPredictor{fixed: 5 * time.Millisecond}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(16)})
	defer q.Close()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q.Submit(context.Background(), []float64{float64(i)})
		}(i)
	}
	wg.Wait()
	max := 0
	for _, b := range pred.Batches() {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Fatalf("no batching occurred: batches = %v", pred.Batches())
	}
}

func TestQueueErrorPropagation(t *testing.T) {
	pred := &countingPredictor{fail: true}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4)})
	defer q.Close()
	_, err := q.Submit(context.Background(), []float64{1})
	if err == nil {
		t.Fatal("expected model error")
	}
}

func TestQueueCloseFailsPending(t *testing.T) {
	pred := &countingPredictor{fixed: 50 * time.Millisecond}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(1)})
	var wg sync.WaitGroup
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := q.Submit(context.Background(), []float64{1})
			results <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	close(results)
	sawClosed := false
	for err := range results {
		if errors.Is(err, errQueueClosed) {
			sawClosed = true
		}
	}
	if !sawClosed {
		t.Fatal("no pending request observed errQueueClosed")
	}
	// Submissions after close fail fast.
	if _, err := q.Submit(context.Background(), []float64{1}); !errors.Is(err, errQueueClosed) {
		t.Fatalf("post-close err = %v", err)
	}
}

func TestQueueCloseIdempotent(t *testing.T) {
	q := NewQueue(&countingPredictor{}, QueueConfig{Controller: NewFixed(1)})
	q.Close()
	q.Close()
}

func TestQueueContextCancellation(t *testing.T) {
	pred := &countingPredictor{fixed: time.Second}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(1)})
	defer q.Close()
	// Occupy the dispatcher.
	go q.Submit(context.Background(), []float64{1})
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := q.Submit(ctx, []float64{2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueueDelayedBatchingAccumulates(t *testing.T) {
	// Trickle queries slower than the dispatcher drains them. Without a
	// batch timeout each dispatch sees 1 query; with a timeout the queue
	// accumulates several.
	run := func(timeout time.Duration) float64 {
		pred := &countingPredictor{}
		q := NewQueue(pred, QueueConfig{Controller: NewFixed(64), BatchTimeout: timeout})
		defer q.Close()
		var wg sync.WaitGroup
		for i := 0; i < 40; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				q.Submit(context.Background(), []float64{float64(i)})
			}(i)
			time.Sleep(500 * time.Microsecond)
		}
		wg.Wait()
		batches := pred.Batches()
		total, count := 0, 0
		for _, b := range batches {
			total += b
			count++
		}
		return float64(total) / float64(count)
	}
	without := run(0)
	with := run(10 * time.Millisecond)
	if with <= without {
		t.Fatalf("delayed batching mean batch %.2f <= undelayed %.2f", with, without)
	}
	if with < 2 {
		t.Fatalf("delayed batching mean batch %.2f, want >= 2", with)
	}
}

func TestQueueTelemetry(t *testing.T) {
	pred := &countingPredictor{}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4)})
	defer q.Close()
	for i := 0; i < 10; i++ {
		if _, err := q.Submit(context.Background(), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// The last Result reaches its submitter before runBatch records the
	// batch's telemetry, so give that bookkeeping a moment to land.
	for deadline := time.Now().Add(time.Second); q.BatchSizes.Sum() != 10 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if q.BatchSizes.Sum() != 10 {
		t.Fatalf("rows dispatched = %v", q.BatchSizes.Sum())
	}
	if q.BatchLatency.Count() == 0 || q.BatchSizes.Count() == 0 {
		t.Fatal("telemetry not recorded")
	}
}

func TestQueueAIMDEndToEnd(t *testing.T) {
	// Container latency 0.2ms + 0.05ms/item with 5ms SLO: optimum ~96.
	// Under sustained load the AIMD queue's batch sizes should grow well
	// past 1 and its batch latencies should mostly respect the SLO.
	pred := &countingPredictor{fixed: 200 * time.Microsecond, perItem: 50 * time.Microsecond}
	slo := 5 * time.Millisecond
	q := NewQueue(pred, QueueConfig{Controller: NewAIMD(AIMDConfig{SLO: slo})})
	defer q.Close()

	var inFlight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				inFlight.Add(1)
				q.Submit(context.Background(), []float64{float64(i)})
				inFlight.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	max := 0
	for _, b := range pred.Batches() {
		if b > max {
			max = b
		}
	}
	if max < 4 {
		t.Fatalf("AIMD never grew batches: max = %d", max)
	}
}

func TestNewQueuePanicsWithoutController(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue(&countingPredictor{}, QueueConfig{})
}

// panickyPredictor blows up on demand.
type panickyPredictor struct {
	panicNow bool
}

func (p *panickyPredictor) Info() container.Info {
	return container.Info{Name: "panicky", Version: 1}
}

func (p *panickyPredictor) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	if p.panicNow {
		panic("model container exploded")
	}
	return make([]container.Prediction, len(xs)), nil
}

func TestQueueSurvivesContainerPanic(t *testing.T) {
	pred := &panickyPredictor{panicNow: true}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4)})
	defer q.Close()
	// The panicking batch must fail its callers with an error...
	if _, err := q.Submit(context.Background(), []float64{1}); err == nil {
		t.Fatal("panic not surfaced as error")
	}
	// ...and the dispatcher must keep serving afterwards.
	pred.panicNow = false
	if _, err := q.Submit(context.Background(), []float64{2}); err != nil {
		t.Fatalf("queue dead after container panic: %v", err)
	}
}
