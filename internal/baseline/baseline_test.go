package baseline

import (
	"context"
	"sync"
	"testing"
	"time"

	"clipper/internal/container"
)

type echoModel struct {
	mu      sync.Mutex
	batches []int
}

func (e *echoModel) Info() container.Info {
	return container.Info{Name: "echo", Version: 1}
}

func (e *echoModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	e.mu.Lock()
	e.batches = append(e.batches, len(xs))
	e.mu.Unlock()
	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i] = container.Prediction{Label: int(x[0])}
	}
	return out, nil
}

func (e *echoModel) Batches() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.batches...)
}

func TestTFServingPredict(t *testing.T) {
	m := &echoModel{}
	s := New(m, 8)
	defer s.Close()
	p, err := s.Predict(context.Background(), []float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != 42 {
		t.Fatalf("Label = %d", p.Label)
	}
	if s.Latency.Count() != 1 {
		t.Fatal("telemetry not recorded")
	}
}

func TestTFServingStaticBatchCap(t *testing.T) {
	m := &echoModel{}
	s := New(m, 4)
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Predict(context.Background(), []float64{float64(i)})
		}(i)
	}
	wg.Wait()
	for _, b := range m.Batches() {
		if b > 4 {
			t.Fatalf("batch %d exceeds static size 4", b)
		}
	}
}

func TestTFServingTimeoutDispatch(t *testing.T) {
	// A single query must not wait forever for the batch to fill: the
	// timeout dispatches it.
	m := &echoModel{}
	s := New(m, 512)
	defer s.Close()
	start := time.Now()
	if _, err := s.Predict(context.Background(), []float64{1}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 200*time.Millisecond {
		t.Fatalf("timeout dispatch took %v", elapsed)
	}
}

func TestTFServingDefaults(t *testing.T) {
	m := &echoModel{}
	s := New(m, 0)
	defer s.Close()
	if got := s.Queue().Controller().MaxBatch(); got != 1 {
		t.Fatalf("default batch = %d", got)
	}
}
