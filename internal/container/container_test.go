package container

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakePredictor labels every input with the sum of its features truncated
// to int, making end-to-end data integrity checkable.
type fakePredictor struct {
	info  Info
	fail  bool
	short bool
	mu    sync.Mutex
	calls int
}

func (f *fakePredictor) Info() Info { return f.info }

func (f *fakePredictor) PredictBatch(xs [][]float64) ([]Prediction, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	if f.fail {
		return nil, errors.New("model exploded")
	}
	n := len(xs)
	if f.short {
		n-- // misbehave: return too few predictions
	}
	out := make([]Prediction, 0, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, v := range xs[i] {
			sum += v
		}
		out = append(out, Prediction{Label: int(sum), Scores: []float64{sum, -sum}})
	}
	return out, nil
}

func (f *fakePredictor) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func newFake(name string) *fakePredictor {
	return &fakePredictor{info: Info{Name: name, Version: 1, InputDim: 2, NumClasses: 10}}
}

func TestInfoString(t *testing.T) {
	info := Info{Name: "m", Version: 3}
	if got := info.String(); got != "m:v3" {
		t.Fatalf("String = %q", got)
	}
}

func TestValidate(t *testing.T) {
	if err := validate(make([]Prediction, 3), 3); err != nil {
		t.Fatal(err)
	}
	if err := validate(make([]Prediction, 2), 3); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestServeAndDial(t *testing.T) {
	fake := newFake("fake")
	addr, srv, err := Serve(fake, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r, err := DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if r.Info() != fake.info {
		t.Fatalf("Info = %+v", r.Info())
	}
	preds, err := r.PredictBatch([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0].Label != 3 || preds[1].Label != 7 {
		t.Fatalf("preds = %+v", preds)
	}
	if preds[0].Scores[0] != 3 {
		t.Fatalf("scores lost in transit: %+v", preds[0])
	}
	if err := r.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	fake := newFake("fake")
	fake.fail = true
	addr, srv, err := Serve(fake, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.PredictBatch([][]float64{{1}})
	if err == nil {
		t.Fatal("expected remote error")
	}
}

func TestServerRejectsShortPredictions(t *testing.T) {
	fake := newFake("fake")
	fake.short = true
	addr, srv, err := Serve(fake, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.PredictBatch([][]float64{{1}, {2}}); err == nil {
		t.Fatal("short prediction batch must be rejected")
	}
}

func TestRemoteClosed(t *testing.T) {
	fake := newFake("fake")
	addr, srv, err := Serve(fake, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.PredictBatch([][]float64{{1}}); !errors.Is(err, errContainerClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoopback(t *testing.T) {
	fake := newFake("loop")
	r, stop, err := Loopback(fake)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	preds, err := r.PredictBatch([][]float64{{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Label != 10 {
		t.Fatalf("label = %d", preds[0].Label)
	}
	if fake.Calls() != 1 {
		t.Fatalf("calls = %d", fake.Calls())
	}
}

func TestLoopbackConcurrent(t *testing.T) {
	fake := newFake("loop")
	r, stop, err := Loopback(fake)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := float64(g*100 + i)
				preds, err := r.PredictBatch([][]float64{{v, 0}})
				if err != nil {
					errs <- err
					return
				}
				if preds[0].Label != int(v) {
					errs <- fmt.Errorf("got %d want %d", preds[0].Label, int(v))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPredictBatchContextCancellation(t *testing.T) {
	slow := &slowPredictor{info: Info{Name: "slow", Version: 1}}
	addr, srv, err := Serve(slow, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = r.PredictBatchContext(ctx, [][]float64{{1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

type slowPredictor struct {
	info Info
}

func (s *slowPredictor) Info() Info { return s.info }
func (s *slowPredictor) PredictBatch(xs [][]float64) ([]Prediction, error) {
	time.Sleep(500 * time.Millisecond)
	return make([]Prediction, len(xs)), nil
}

func TestServerRejectsWrongInputDim(t *testing.T) {
	fake := newFake("dimcheck") // advertises InputDim 2
	addr, srv, err := Serve(fake, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := DialConns(addr, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.PredictBatch([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
	// Correct dims still work.
	if _, err := r.PredictBatch([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
}
