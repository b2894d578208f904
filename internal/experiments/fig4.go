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

// runFig4 reproduces Figure 4: throughput and P99 latency of the adaptive
// (AIMD), quantile-regression and no-batching strategies on each model
// container, under a 20 ms latency SLO.
func runFig4(scale Scale) (Result, error) {
	res := Result{ID: "fig4", Title: "Comparison of Dynamic Batching Strategies (paper Figure 4)"}

	profiles := frameworks.Figure3Profiles()
	warm, measure := 300*time.Millisecond, 700*time.Millisecond
	workers := 256
	if scale == Quick {
		profiles = []frameworks.Profile{
			frameworks.SKLearnLinearSVM(),
			frameworks.SKLearnKernelSVM(),
			frameworks.NoOpContainer(),
		}
		warm, measure = 150*time.Millisecond, 350*time.Millisecond
		workers = 128
	}

	strategies := []struct {
		name string
		mk   func() batching.Controller
	}{
		{"adaptive", func() batching.Controller {
			return batching.NewAIMD(batching.AIMDConfig{SLO: fig3SLO, Additive: 8})
		}},
		{"quantile-regression", func() batching.Controller {
			return batching.NewQuantileReg(fig3SLO)
		}},
		{"no-batching", func() batching.Controller { return batching.NewFixed(1) }},
	}

	for _, profile := range profiles {
		res.Lines = append(res.Lines, fmt.Sprintf("container %s:", profile.Name))
		// The kernel SVM is so expensive that closed-loop no-batching
		// takes minutes to drain workers×queries; cap its workers.
		w := workers
		if profile.PerItem >= time.Millisecond {
			w = 16
		}
		for _, strat := range strategies {
			thr, p99, err := driveQueue(profile, strat.mk(), 0, w, warm, measure)
			if err != nil {
				return Result{}, err
			}
			res.Lines = append(res.Lines, fmt.Sprintf(
				"  %-20s throughput=%9.0f qps   p99=%9.3f ms", strat.name, thr, p99*1e3))
		}
	}
	return res, nil
}

// driveQueue runs a closed-loop workload of `workers` clients against one
// batching queue over the profile for warm+measure, returning the measured
// throughput (qps) and P99 request latency (seconds) from the measurement
// window only.
func driveQueue(profile frameworks.Profile, ctrl batching.Controller, batchTimeout time.Duration, workers int, warm, measure time.Duration) (float64, float64, error) {
	pred := frameworks.NewSimPredictor(models.NewNoOp(profile.Name, 10, 0), profile, 0, 99)
	// InFlight 1 keeps the paper's serial one-batch-at-a-time dispatcher:
	// the figure compares batch-sizing strategies, and pipelined dispatch
	// would flatten the no-batching baseline it is measured against.
	q := batching.NewQueue(pred, batching.QueueConfig{Controller: ctrl, BatchTimeout: batchTimeout, InFlight: 1})
	defer q.Close()

	lat := workload.MeasureClosedLoop(workers, warm, measure, func(ctx context.Context, wk int) error {
		_, err := q.Submit(ctx, []float64{float64(wk)})
		return err
	})
	thr := float64(lat.Count()) / measure.Seconds()
	return thr, lat.P99(), nil
}
