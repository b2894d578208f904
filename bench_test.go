package clipper_test

// bench_test.go exposes every table and figure of the paper's evaluation
// as a testing.B benchmark, one per artifact (experiments.IDs lists
// them). Each benchmark runs its experiment at Quick scale and reports
// the headline metric(s) via b.ReportMetric, printing the full report with
// -v. The cmd/bench tool runs the same experiments at Full scale.
//
// Run all with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig4 -v        # include the rendered figure

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
	"clipper/internal/experiments"
)

// runExperiment executes one registered experiment once per benchmark
// invocation, logging its rendered output.
func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Quick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = res
	}
	b.Log("\n" + last.String())
	return last
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset inventory).
func BenchmarkTable1Datasets(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2DeepModels regenerates Table 2 (deep model inventory with
// stand-in accuracies).
func BenchmarkTable2DeepModels(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig3LatencyProfiles regenerates Figure 3 (container latency vs
// batch size, plus the linear/kernel SLO-batch ratio).
func BenchmarkFig3LatencyProfiles(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4BatchingStrategies regenerates Figure 4 (AIMD vs quantile
// regression vs no batching: throughput and P99).
func BenchmarkFig4BatchingStrategies(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5DelayedBatching regenerates Figure 5 (throughput gain from
// the batch wait timeout).
func BenchmarkFig5DelayedBatching(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ReplicaScaling regenerates Figure 6 (replica scaling over
// 10 Gbps and 1 Gbps networks).
func BenchmarkFig6ReplicaScaling(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7EnsembleAccuracy regenerates Figure 7 (ensemble accuracy
// and agreement-based confidence splits).
func BenchmarkFig7EnsembleAccuracy(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8ModelFailure regenerates Figure 8 (Exp3/Exp4 under model
// degradation and recovery).
func BenchmarkFig8ModelFailure(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Stragglers regenerates Figure 9 (straggler mitigation:
// latency, missing predictions, accuracy vs ensemble size).
func BenchmarkFig9Stragglers(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Personalization regenerates Figure 10 (personalized model
// selection on the speech benchmark).
func BenchmarkFig10Personalization(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11TFServingComparison regenerates Figure 11 (TensorFlow
// Serving vs Clipper C++/Python containers).
func BenchmarkFig11TFServingComparison(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkCacheFeedbackThroughput regenerates the §4.2 caching claim
// (1.6x feedback throughput).
func BenchmarkCacheFeedbackThroughput(b *testing.B) { runExperiment(b, "cache16") }

// BenchmarkAblationAIMDBackoff runs the AIMD backoff-factor ablation.
func BenchmarkAblationAIMDBackoff(b *testing.B) { runExperiment(b, "ablation-aimd") }

// BenchmarkAblationExp3Eta runs the Exp3 learning-rate ablation.
func BenchmarkAblationExp3Eta(b *testing.B) { runExperiment(b, "ablation-eta") }

// BenchmarkAblationCacheEviction runs the cache-size ablation.
func BenchmarkAblationCacheEviction(b *testing.B) { runExperiment(b, "ablation-cache") }

// BenchmarkExtensionCascade runs the model-composition (cascade) extension
// experiment: cheap-model fast path vs the full ensemble.
func BenchmarkExtensionCascade(b *testing.B) { runExperiment(b, "extension-cascade") }

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
