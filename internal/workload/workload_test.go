package workload

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clipper/internal/container"
	"clipper/internal/dataset"
)

func testDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Gaussian(dataset.GaussianConfig{
		Name: "w", N: 200, Dim: 4, NumClasses: 3, Separation: 3, Noise: 1, Seed: 1,
	})
}

func TestUniformSamplerCoverage(t *testing.T) {
	ds := testDS(t)
	s := newUniformSampler(ds, 1)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		smp := s.Next()
		if smp.Label < 0 || smp.Label >= 3 {
			t.Fatalf("label %d out of range", smp.Label)
		}
		if smp.Group != -1 {
			t.Fatalf("ungrouped dataset gave group %d", smp.Group)
		}
		seen[int(smp.X[0]*1000)] = true
	}
	if len(seen) < 50 {
		t.Fatalf("uniform sampler visited too few examples: %d", len(seen))
	}
}

func TestZipfSamplerSkew(t *testing.T) {
	ds := testDS(t)
	s := NewZipfSampler(ds, 1.5, 2)
	counts := map[uint64]int{}
	keyOf := func(x []float64) uint64 { return math.Float64bits(x[0]) }
	const n = 5000
	for i := 0; i < n; i++ {
		counts[keyOf(s.Next().X)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The hottest query should dominate (far above uniform 1/200 share).
	if float64(max)/n < 0.10 {
		t.Fatalf("Zipf hottest share = %.3f, want >= 0.10", float64(max)/n)
	}
	// Degenerate s falls back.
	fallback := NewZipfSampler(ds, 0.5, 2)
	fallback.Next()
}

func TestSequentialSamplerWrapsAround(t *testing.T) {
	ds := testDS(t)
	s := NewSequentialSampler(ds)
	for i := 0; i < ds.Len(); i++ {
		smp := s.Next()
		if smp.Label != ds.Y[i] {
			t.Fatalf("sample %d out of order", i)
		}
	}
	smp := s.Next()
	if smp.Label != ds.Y[0] {
		t.Fatal("did not wrap around")
	}
}

func TestSamplersGrouped(t *testing.T) {
	ds := dataset.SpeechLike(dataset.SpeechConfig{N: 100, NumDialects: 4, NumSpeakers: 20, Dim: 8, NumPhonemes: 5, Seed: 1})
	u := newUniformSampler(ds, 1)
	if g := u.Next().Group; g < 0 || g >= 4 {
		t.Fatalf("group = %d", g)
	}
	seq := NewSequentialSampler(ds)
	if g := seq.Next().Group; g != ds.Group[0] {
		t.Fatal("sequential group mismatch")
	}
	z := NewZipfSampler(ds, 1.5, 1)
	if g := z.Next().Group; g < 0 || g >= 4 {
		t.Fatalf("zipf group = %d", g)
	}
}

func TestRunClosedLoopCount(t *testing.T) {
	var n atomic.Int64
	runClosedLoop(context.Background(), 4, 25, func(w int) {
		n.Add(1)
	})
	if n.Load() != 100 {
		t.Fatalf("ran %d queries, want 100", n.Load())
	}
}

func TestRunClosedLoopCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runClosedLoop(ctx, 2, 0, func(w int) {
			n.Add(1)
			time.Sleep(time.Millisecond)
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("closed loop did not stop on cancellation")
	}
}

func TestRunOpenLoopRate(t *testing.T) {
	var n atomic.Int64
	issued := MeasureOpenLoop(context.Background(), OpenLoopConfig{Rate: 1000, Duration: 200 * time.Millisecond, Seed: 1}, func(int) error {
		n.Add(1)
		return nil
	}).Issued
	if issued != int(n.Load()) {
		t.Fatalf("issued %d != executed %d", issued, n.Load())
	}
	// ~200 expected; allow generous slack for scheduler noise.
	if issued < 50 || issued > 600 {
		t.Fatalf("issued %d queries at 1000qps for 200ms, want ~200", issued)
	}
	if MeasureOpenLoop(context.Background(), OpenLoopConfig{Rate: 0, Duration: time.Second, Seed: 1}, func(int) error { return nil }).Issued != 0 {
		t.Fatal("zero rate should issue nothing")
	}
}

// TestModulatedArrivals pins the diurnal and flash schedules per seed: the
// arrival count, and how many fall inside the flash crowd's window (the
// run's middle third). Arrival times come from seeded gaps, not from the
// clock, so the pacer issues exactly the schedule's count however late its
// sleeps wake.
func TestModulatedArrivals(t *testing.T) {
	for _, tc := range []struct {
		process         string
		seed            int64
		arrivals, crowd int
	}{
		// Flash: 100 + 400 + 100 expected, 2/3 of them in the crowd.
		{processFlash, 1, 608, 405},
		{processFlash, 2, 626, 403},
		// Diurnal: 300 expected over one full period, 1/3 in the middle.
		{processDiurnal, 1, 290, 104},
		{processDiurnal, 2, 341, 105},
	} {
		cfg := OpenLoopConfig{Process: tc.process, Rate: 2000, Duration: 150 * time.Millisecond, Seed: tc.seed}
		cfg.defaults()
		start, end := cfg.flashWindow()
		arrivals, crowd := 0, 0
		cfg.arrivals(func(at time.Duration, _ int) bool {
			arrivals++
			if at >= start && at < end {
				crowd++
			}
			return true
		})
		if arrivals != tc.arrivals || crowd != tc.crowd {
			t.Errorf("%s seed %d: %d arrivals, %d in the middle third; want %d, %d",
				tc.process, tc.seed, arrivals, crowd, tc.arrivals, tc.crowd)
		}
		var ran atomic.Int64
		if issued := runOpenLoopProcess(context.Background(), cfg, func(int) { ran.Add(1) }); issued != arrivals || int(ran.Load()) != arrivals {
			t.Errorf("%s seed %d: the pacer issued %d and ran %d, want the schedule's %d",
				tc.process, tc.seed, issued, ran.Load(), arrivals)
		}
	}
}

// TestMeasureClosedLoopCountsWindowSuccesses: the histogram holds only the
// calls that succeed and complete inside the measure window. The kinds of
// call are told apart by what they return, not by how long they take:
// worker 0 fails every call, and worker 1's first call is an instant
// warm-up success. A run whose worker 1 then only waits out the window
// and returns its error must count nothing; a run whose worker 1 then
// succeeds every millisecond must count some of those successes and no
// more calls than there were successes.
func TestMeasureClosedLoopCountsWindowSuccesses(t *testing.T) {
	errFailed := errors.New("failed")
	wait := func(ctx context.Context, d time.Duration) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	run := func(succeed bool) (counted, succeeded, failed int64) {
		var warmed atomic.Bool
		var ok, bad atomic.Int64
		lat := MeasureClosedLoop(2, 100*time.Millisecond, 100*time.Millisecond, func(ctx context.Context, worker int) error {
			if worker == 0 {
				if err := wait(ctx, time.Millisecond); err != nil {
					return err
				}
				bad.Add(1)
				return errFailed
			}
			if !warmed.Swap(true) {
				return nil // a warm-up completion
			}
			if !succeed {
				<-ctx.Done()
				return ctx.Err()
			}
			if err := wait(ctx, time.Millisecond); err != nil {
				return err
			}
			ok.Add(1)
			return nil
		})
		return lat.Count(), ok.Load(), bad.Load()
	}

	if n, _, failed := run(false); failed == 0 || n != 0 {
		t.Fatalf("counted %d calls when only %d failures and a warm-up completion ran, want 0 (and failures > 0)", n, failed)
	}
	n, succeeded, failed := run(true)
	if failed == 0 || succeeded == 0 {
		t.Fatalf("%d failures and %d successes ran, want both", failed, succeeded)
	}
	if n == 0 || n > succeeded {
		t.Fatalf("counted %d calls, want between 1 and the %d successes", n, succeeded)
	}
}

type constModel struct{ label int }

func (c *constModel) Info() container.Info {
	return container.Info{Name: "const", Version: 1, NumClasses: 10}
}
func (c *constModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: c.label}
	}
	return out, nil
}

func TestDegradable(t *testing.T) {
	d := NewDegradable(&constModel{label: 3}, 0, 1)
	if d.Degraded() {
		t.Fatal("initially degraded")
	}
	preds, err := d.PredictBatch(make([][]float64, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Label != 3 {
			t.Fatal("healthy mode altered predictions")
		}
	}
	d.SetDegraded(true)
	if !d.Degraded() {
		t.Fatal("SetDegraded failed")
	}
	distinct := map[int]bool{}
	for i := 0; i < 50; i++ {
		preds, _ := d.PredictBatch(make([][]float64, 1))
		distinct[preds[0].Label] = true
		if preds[0].Label < 0 || preds[0].Label >= 10 {
			t.Fatalf("degraded label %d out of range", preds[0].Label)
		}
	}
	if len(distinct) < 3 {
		t.Fatalf("degraded predictions not random: %v", distinct)
	}
	d.SetDegraded(false)
	preds, _ = d.PredictBatch(make([][]float64, 1))
	if preds[0].Label != 3 {
		t.Fatal("recovery did not restore predictions")
	}
}

func TestDegradableClassFallback(t *testing.T) {
	zero := &constModel{}
	d := NewDegradable(zeroClassModel{zero}, 0, 1)
	d.SetDegraded(true)
	preds, err := d.PredictBatch(make([][]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Label < 0 || p.Label >= 2 {
			t.Fatalf("fallback classes violated: %d", p.Label)
		}
	}
}

type zeroClassModel struct{ inner container.Predictor }

func (z zeroClassModel) Info() container.Info {
	return container.Info{Name: "zero", Version: 1, NumClasses: 0}
}
func (z zeroClassModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	return z.inner.PredictBatch(xs)
}

func TestSamplersConcurrent(t *testing.T) {
	ds := testDS(t)
	samplers := []interface{ Next() Sample }{
		newUniformSampler(ds, 1),
		NewZipfSampler(ds, 1.5, 1),
		NewSequentialSampler(ds),
	}
	for _, s := range samplers {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					s.Next()
				}
			}()
		}
		wg.Wait()
	}
}
