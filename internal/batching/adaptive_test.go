package batching

import (
	"context"
	"sync"
	"testing"
	"time"

	"clipper/internal/container"
	"clipper/internal/rpc"
)

// fakePool is a PoolTuner with scripted telemetry: tests control the
// queued-behind-write fraction the controller sees each period.
type fakePool struct {
	mu     sync.Mutex
	conns  int
	target int
	writes int64
	queued int64
	wait   time.Duration
}

func newFakePool(conns int) *fakePool { return &fakePool{conns: conns, target: conns} }

func (f *fakePool) PoolStats() rpc.PoolStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return rpc.PoolStats{
		Conns: f.conns, Live: f.conns, Target: f.target,
		Writes: f.writes, WriteQueued: f.queued, WriteWait: f.wait,
	}
}

func (f *fakePool) SetPoolTarget(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 1 {
		n = 1
	}
	if n > f.conns {
		n = f.conns
	}
	f.target = n
	return n
}

// advance adds one period's worth of write traffic at the given
// queued-behind-write fraction, with each queued write having waited
// perWait behind the in-progress write.
func (f *fakePool) advance(writes int64, queuedFrac float64, perWait time.Duration) {
	f.mu.Lock()
	queued := int64(float64(writes) * queuedFrac)
	f.writes += writes
	f.queued += queued
	f.wait += time.Duration(queued) * perWait
	f.mu.Unlock()
}

func (f *fakePool) Target() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.target
}

// boundAdaptive returns a controller bound to a bare window and load
// model, the way NewQueue binds one.
func boundAdaptive(cfg AdaptiveConfig) *Adaptive {
	a := NewAdaptive(cfg)
	a.bind(newWinSem(a.Window()), new(LoadModel))
	return a
}

// feedPeriod pushes one full control period of identical batches through
// the model and the controller, in runBatch's order.
func feedPeriod(a *Adaptive, batches int, lat time.Duration) {
	for i := 0; i < batches; i++ {
		a.model.observe(16, lat, 0)
		a.tick()
	}
}

func TestAdaptiveDefaultsAndBounds(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{})
	if got := a.Window(); got != 1 {
		t.Fatalf("default initial window = %d, want 1", got)
	}
	a = NewAdaptive(AdaptiveConfig{MinInFlight: 2, MaxInFlight: 8, InitialInFlight: 99})
	if got := a.Window(); got != 8 {
		t.Fatalf("initial window clamps to max: got %d, want 8", got)
	}
	a = NewAdaptive(AdaptiveConfig{MinInFlight: 4, InitialInFlight: 1})
	if got := a.Window(); got != 4 {
		t.Fatalf("initial window clamps to min: got %d, want 4", got)
	}
}

func TestAdaptivePoolGrowsWhileTransferBound(t *testing.T) {
	p := newFakePool(4)
	a := boundAdaptive(AdaptiveConfig{ProbeBatches: 4})
	a.AttachPool(p)
	if p.Target() != 1 {
		t.Fatalf("initial pool target = %d, want MinConns=1", p.Target())
	}
	// Sustained heavy write queueing, each queued write waiting half a
	// batch latency: the target must climb to the slot count, one step
	// per period.
	for period := 0; period < 6; period++ {
		p.advance(100, 0.5, 500*time.Microsecond)
		feedPeriod(a, 4, time.Millisecond)
	}
	if p.Target() != 4 {
		t.Fatalf("pool target = %d after sustained queueing, want 4", p.Target())
	}
	if !a.Snapshot().TransferBound {
		t.Fatal("snapshot should report transfer-bound")
	}

	// Quiet write path: the target shrinks back after quietPeriods calm
	// periods per step.
	for period := 0; period < 4*quietPeriods; period++ {
		p.advance(100, 0, 0)
		feedPeriod(a, 4, time.Millisecond)
	}
	if p.Target() != 1 {
		t.Fatalf("pool target = %d after quiet spell, want MinConns=1", p.Target())
	}
	if a.Snapshot().TransferBound {
		t.Fatal("snapshot should report compute-bound after quiet spell")
	}
}

// TestAdaptivePoolIgnoresMicroCollisions: a high queued-behind-write
// *count* whose total *time* is negligible (tiny frames colliding on a
// compute-bound replica) must not read as transfer-bound.
func TestAdaptivePoolIgnoresMicroCollisions(t *testing.T) {
	p := newFakePool(4)
	p.SetPoolTarget(4)
	a := boundAdaptive(AdaptiveConfig{ProbeBatches: 4, InitialConns: 4})
	a.AttachPool(p)
	for period := 0; period < 4*quietPeriods; period++ {
		// Half the writes "queued", but for 100ns each against 1ms
		// batches: noise, not a saturated wire.
		p.advance(100, 0.5, 100*time.Nanosecond)
		feedPeriod(a, 4, time.Millisecond)
	}
	if a.Snapshot().TransferBound {
		t.Fatal("micro-collisions misread as transfer-bound")
	}
	if p.Target() != 1 {
		t.Fatalf("pool target = %d, want shrink to 1 despite collision count", p.Target())
	}
}

func TestAdaptiveWindowBackoffOnLatencyInflation(t *testing.T) {
	a := boundAdaptive(AdaptiveConfig{
		MinInFlight: 1, MaxInFlight: 16, InitialInFlight: 8,
		ProbeBatches: 4,
	})
	// Establish a baseline, then inflate latency 4x with no
	// transfer-bound signal: the emergency backoff must shed window
	// multiplicatively.
	for period := 0; period < 4; period++ {
		feedPeriod(a, 4, time.Millisecond)
	}
	start := a.Window()
	for period := 0; period < 30 && a.Window() > 1; period++ {
		feedPeriod(a, 4, 40*time.Millisecond)
	}
	if got := a.Window(); got >= start {
		t.Fatalf("window = %d after sustained latency inflation, want < %d", got, start)
	}
}

func TestAdaptiveWindowNeverLeavesBounds(t *testing.T) {
	a := boundAdaptive(AdaptiveConfig{MinInFlight: 2, MaxInFlight: 5, ProbeBatches: 2})
	lat := time.Millisecond
	for period := 0; period < 200; period++ {
		// Alternate flat and inflated latencies to exercise every branch.
		if period%3 == 0 {
			lat = 10 * time.Millisecond
		} else {
			lat = time.Millisecond
		}
		feedPeriod(a, 2, lat)
		if w := a.Window(); w < 2 || w > 5 {
			t.Fatalf("window %d escaped bounds [2,5] at period %d", w, period)
		}
	}
}

// TestAdaptiveQueueDeliversEveryResult re-checks the queue's
// exactly-one-Result contract with the adaptive window swapping sizes
// mid-flight.
func TestAdaptiveQueueDeliversEveryResult(t *testing.T) {
	pred := container.NewFunc(container.Info{Name: "m", Version: 1},
		func(xs [][]float64) ([]container.Prediction, error) {
			time.Sleep(200 * time.Microsecond)
			out := make([]container.Prediction, len(xs))
			for i := range xs {
				out[i] = container.Prediction{Label: int(xs[i][0])}
			}
			return out, nil
		})
	a := NewAdaptive(AdaptiveConfig{MinInFlight: 1, MaxInFlight: 8, ProbeBatches: 2})
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4), Adaptive: a})
	defer q.Close()

	if q.Adaptive() != a {
		t.Fatal("Adaptive() accessor lost the controller")
	}

	const submitters, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, submitters*per)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pred, err := q.Submit(context.Background(), []float64{float64(s)})
				if err != nil {
					errs <- err
					return
				}
				if pred.Label != s {
					t.Errorf("label = %d, want %d", pred.Label, s)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w := q.InFlight(); w < 1 || w > 8 {
		t.Fatalf("final window %d out of bounds", w)
	}
}

// TestAdaptiveQueueCloseMidFlight closes the queue while the adaptive
// collector may be blocked on the window semaphore.
func TestAdaptiveQueueCloseMidFlight(t *testing.T) {
	block := make(chan struct{})
	pred := container.NewFunc(container.Info{Name: "m", Version: 1},
		func(xs [][]float64) ([]container.Prediction, error) {
			<-block
			out := make([]container.Prediction, len(xs))
			return out, nil
		})
	a := NewAdaptive(AdaptiveConfig{MinInFlight: 1, MaxInFlight: 2, InitialInFlight: 1})
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(1), Adaptive: a})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Results must be an error or a prediction — never a hang.
			_, _ = q.Submit(context.Background(), []float64{1})
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the collector block on the window
	close(block)
	q.Close()
	wg.Wait()
}

func TestWinSemResize(t *testing.T) {
	w := newWinSem(1)
	if !w.acquire() {
		t.Fatal("first acquire failed")
	}
	acquired := make(chan bool, 1)
	go func() { acquired <- w.acquire() }()
	select {
	case <-acquired:
		t.Fatal("acquire succeeded past the limit")
	case <-time.After(10 * time.Millisecond):
	}
	w.setLimit(2) // growing unblocks the waiter
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("acquire failed after grow")
		}
	case <-time.After(time.Second):
		t.Fatal("grow did not unblock acquire")
	}
	w.setLimit(1) // shrink below held count: releases drain it
	w.release(time.Time{})
	w.release(time.Time{})
	if got := w.curLimit(); got != 1 {
		t.Fatalf("limit = %d, want 1", got)
	}
	w.close()
	if w.acquire() {
		t.Fatal("acquire succeeded after close")
	}
}
