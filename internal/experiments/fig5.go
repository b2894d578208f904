package experiments

import (
	"context"
	"fmt"
	"time"

	"clipper/internal/batching"
	"clipper/internal/frameworks"
	"clipper/internal/models"
	"clipper/internal/workload"
)

// runFig5 reproduces Figure 5: the throughput gain from delayed batching.
// Two containers are driven at a moderate open-loop rate while the batch
// wait timeout sweeps upward. The Spark-like SVM (efficient at small
// batches) gains nothing; the Scikit-Learn BLAS SVM (high fixed cost,
// near-total batch parallelism) needs the delay to form efficient batches
// and keep up with the offered load.
func runFig5(scale Scale) (Result, error) {
	res := Result{ID: "fig5", Title: "Throughput Increase from Delayed Batching (paper Figure 5)"}

	timeouts := []time.Duration{0, 1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	duration := time.Second
	rate := 4000.0
	if scale == Quick {
		timeouts = []time.Duration{0, 2 * time.Millisecond}
		duration = 400 * time.Millisecond
	}

	for _, profile := range []frameworks.Profile{
		frameworks.PySparkLinearSVM(),
		frameworks.SKLearnSVMBLAS(),
	} {
		res.Lines = append(res.Lines, fmt.Sprintf("container %s (offered load %.0f qps):", profile.Name, rate))
		baselineCap := 0.0
		for _, timeout := range timeouts {
			thr, meanLat, meanBatch, capacity, err := driveOpenLoop(profile, timeout, rate, duration)
			if err != nil {
				return Result{}, err
			}
			if baselineCap == 0 {
				baselineCap = capacity
			}
			res.Lines = append(res.Lines, fmt.Sprintf(
				"  wait=%6s  completed=%8.0f qps  capacity=%8.0f qps (%4.1fx)  mean-latency=%8.3f ms  mean-batch=%6.1f",
				timeout, thr, capacity, capacity/baselineCap, meanLat*1e3, meanBatch))
		}
	}
	return res, nil
}

// driveOpenLoop offers a Poisson arrival stream at `rate` qps to a
// large-cap queue with the given batch wait timeout. It returns completed
// throughput, mean request latency (seconds), mean batch size, and the
// container's sustainable capacity — completed queries divided by container
// busy time. Capacity is the paper's Figure 5 "efficiency" quantity: for a
// high-fixed-cost, batch-parallel container (the Scikit-Learn BLAS SVM),
// delayed batching multiplies it; for a container already efficient at
// small batches (the Spark SVM) it changes little.
func driveOpenLoop(profile frameworks.Profile, batchTimeout time.Duration, rate float64, duration time.Duration) (thr, meanLat, meanBatch, capacity float64, err error) {
	pred := frameworks.NewSimPredictor(models.NewNoOp(profile.Name, 10, 0), profile, 0, 5)
	q := batching.NewQueue(pred, batching.QueueConfig{
		Controller:   batching.NewFixed(512),
		BatchTimeout: batchTimeout,
		InFlight:     1, // paper-faithful serial dispatch (see fig4)
	})
	defer q.Close()

	ctx, cancel := context.WithTimeout(context.Background(), duration+5*time.Second)
	defer cancel()
	res := workload.MeasureOpenLoop(ctx, workload.OpenLoopConfig{Rate: rate, Duration: duration, Seed: 3}, func(int) error {
		_, err := q.Submit(ctx, []float64{1})
		return err
	})

	busy := q.BatchLatency.Sum() // container-busy seconds
	capacity = 0
	if busy > 0 {
		capacity = float64(res.Completed) / busy
	}
	return res.QPS, res.Mean.Seconds(), q.BatchSizes.Mean(), capacity, nil
}
