package clipper_test

// bench_test.go measures the overhead Clipper itself adds on its request
// paths: predict (serial and parallel), feedback, and a REST round trip.
// The paper's tables and figures are not benchmarks: cmd/bench runs them
// (bench -experiment fig4 -scale quick|full), and TestQuickGolden pins
// their Quick-scale output.
//
// Run with:
//
//	go test -run='^$' -bench=. -benchmem .

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"clipper"
)

// BenchmarkPredictPath measures the end-to-end single-model prediction
// path (cache + queue + loopback-free container) in isolation — the
// per-query overhead Clipper itself adds.
func BenchmarkPredictPath(b *testing.B) {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	if _, err := cl.Deploy(benchModel{}, nil, clipper.QueueConfig{
		Controller: clipper.NewFixedBatch(64),
	}); err != nil {
		b.Fatal(err)
	}
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "bench", Models: []string{"bench-model"}, Policy: clipper.NewStaticPolicy(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	x := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = float64(i % 4096) // bounded distinct queries exercise the cache
		if _, err := app.Predict(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictPathParallel drives the same end-to-end prediction path
// from GOMAXPROCS goroutines at once — the regime the sharded prediction
// cache exists for: without lock striping every Predict serializes on the
// cache's single mutex. Compare with BenchmarkPredictPath (serial) and
// internal/cache's BenchmarkCacheParallel (cache in isolation).
func BenchmarkPredictPathParallel(b *testing.B) {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	if _, err := cl.Deploy(benchModel{}, nil, clipper.QueueConfig{
		Controller: clipper.NewFixedBatch(64),
	}); err != nil {
		b.Fatal(err)
	}
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "bench", Models: []string{"bench-model"}, Policy: clipper.NewStaticPolicy(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var gid atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := make([]float64, 64)
		i := gid.Add(1) * 1_000_003
		for pb.Next() {
			i++
			x[0] = float64(i % 4096) // bounded distinct queries exercise the cache
			if _, err := app.Predict(ctx, x); err != nil {
				b.Error(err) // Fatal must not run on a RunParallel worker
				return
			}
		}
	})
}

// BenchmarkFeedbackPath measures the feedback-join path.
func BenchmarkFeedbackPath(b *testing.B) {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	if _, err := cl.Deploy(benchModel{}, nil, clipper.QueueConfig{
		Controller: clipper.NewFixedBatch(64),
	}); err != nil {
		b.Fatal(err)
	}
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name: "bench", Models: []string{"bench-model"}, Policy: clipper.NewExp3(0.1),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	x := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = float64(i % 4096)
		if err := app.Feedback(ctx, x, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModel is a trivial instant model for overhead benchmarks.
type benchModel struct{}

func (benchModel) Info() clipper.ModelInfo {
	return clipper.ModelInfo{Name: "bench-model", Version: 1, NumClasses: 2}
}

func (benchModel) PredictBatch(xs [][]float64) ([]clipper.Prediction, error) {
	out := make([]clipper.Prediction, len(xs))
	for i := range out {
		out[i] = clipper.Prediction{Label: int(xs[i][0]) & 1}
	}
	return out, nil
}

// BenchmarkRESTPredict measures the full REST round trip.
func BenchmarkRESTPredict(b *testing.B) {
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	if _, err := cl.Deploy(benchModel{}, nil, clipper.QueueConfig{
		Controller: clipper.NewFixedBatch(16),
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := cl.RegisterApp(clipper.AppConfig{
		Name: "bench", Models: []string{"bench-model"}, Policy: clipper.NewStaticPolicy(0),
	}); err != nil {
		b.Fatal(err)
	}
	srv := clipper.NewRESTServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + addr + "/api/v1/predict"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(map[string]interface{}{
			"app": "bench", "input": []float64{float64(i % 4096)},
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
