package batching

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"clipper/internal/container"
)

// The queue's one call: a predictor that implements viewCaller itself
// (container.Remote does) is called through its own method, never wrapped
// as an in-process predictor. These tests pin that choice, the
// exactly-one-Result contract on both the success and error paths, and
// panic isolation, against such a predictor.

// flatSpy is a viewCaller that records the batches it receives as flat
// views and answers with the first feature of each row as the label.
type flatSpy struct {
	mu      sync.Mutex
	batches []int
	fail    error
	panics  bool
}

func (p *flatSpy) Info() container.Info { return container.Info{Name: "flatspy", Version: 1} }

func (p *flatSpy) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	return nil, errors.New("flatspy: wrapped as an in-process predictor")
}

func (p *flatSpy) PredictViewContext(ctx context.Context, v *container.BatchView, deliver func(i int, pr container.Prediction)) error {
	p.mu.Lock()
	p.batches = append(p.batches, v.Rows())
	fail, panics := p.fail, p.panics
	p.mu.Unlock()
	if panics {
		panic("flatspy: boom")
	}
	if fail != nil {
		return fail
	}
	for i := 0; i < v.Rows(); i++ {
		deliver(i, container.Prediction{Label: int(v.Row(i)[0])})
	}
	return nil
}

// TestQueueCallsViewCallerDirectly: a predictor exposing
// PredictViewContext receives the queue's batches through it.
func TestQueueCallsViewCallerDirectly(t *testing.T) {
	pred := &flatSpy{}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4)})
	defer q.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := q.Submit(context.Background(), []float64{float64(i)})
			if err != nil {
				errs <- err
				return
			}
			if pr.Label != i {
				errs <- fmt.Errorf("query %d got label %d", i, pr.Label)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pred.mu.Lock()
	defer pred.mu.Unlock()
	if len(pred.batches) == 0 {
		t.Fatal("PredictViewContext never ran")
	}
	for _, b := range pred.batches {
		if b > 4 {
			t.Fatalf("flat batch of %d exceeds cap 4", b)
		}
	}
}

// TestQueueFlatErrorFansOut: a failing flat call must deliver the error
// to every submitter in the batch, exactly once each.
func TestQueueFlatErrorFansOut(t *testing.T) {
	boom := errors.New("flat boom")
	pred := &flatSpy{fail: boom}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(8)})
	defer q.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := q.Submit(context.Background(), []float64{float64(i)})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		n++
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the container error", err)
		}
	}
	if n != 16 {
		t.Fatalf("%d results delivered, want 16", n)
	}
}

// TestQueueFlatSurvivesPanic: a panic inside PredictViewContext is
// isolated — the batch fails, the pipeline worker survives, and the queue
// keeps serving.
func TestQueueFlatSurvivesPanic(t *testing.T) {
	pred := &flatSpy{panics: true}
	q := NewQueue(pred, QueueConfig{Controller: NewFixed(4)})
	defer q.Close()
	if _, err := q.Submit(context.Background(), []float64{1}); err == nil {
		t.Fatal("expected panic-derived error")
	}
	pred.mu.Lock()
	pred.panics = false
	pred.mu.Unlock()
	pr, err := q.Submit(context.Background(), []float64{7})
	if err != nil {
		t.Fatalf("queue did not survive the panic: %v", err)
	}
	if pr.Label != 7 {
		t.Fatalf("label = %d, want 7", pr.Label)
	}
}

// TestQueueFlatEndToEndLoopback drives the queue over a real Loopback
// ViewPredictor — the full flat data plane: flat collection, wire codec,
// view dispatch, flat response, scatter.
func TestQueueFlatEndToEndLoopback(t *testing.T) {
	pred := container.NewFuncView(container.Info{Name: "e2e", Version: 1},
		func(v container.BatchView, out *container.PredictionView) error {
			out.Reset()
			for i := 0; i < v.Rows(); i++ {
				out.Append(int(v.Row(i)[0]), []float64{v.Row(i)[0] / 2})
			}
			return nil
		})
	remote, stop, err := container.Loopback(pred)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	q := NewQueue(remote, QueueConfig{Controller: NewFixed(16)})
	defer q.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := q.Submit(context.Background(), []float64{float64(i)})
			if err != nil {
				errs <- err
				return
			}
			if pr.Label != i || len(pr.Scores) != 1 || pr.Scores[0] != float64(i)/2 {
				errs <- fmt.Errorf("query %d got %+v", i, pr)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
