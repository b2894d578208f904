package experiments

import (
	"context"
	"fmt"
	"time"

	"clipper/internal/batching"
	"clipper/internal/core"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/metrics"
	"clipper/internal/models"
	"clipper/internal/selection"
)

// RunFig9 reproduces Figure 9: the cost of stragglers as ensembles grow.
// Ensembles of 2–16 model containers with heavy-tailed latency profiles
// serve an Exp4 application twice: once blocking for every member
// ("stragglers") and once with best-effort straggler mitigation at a 20 ms
// deadline. Reported per size: (a) mean and P99 latency, (b) mean and P99
// percentage of the ensemble missing at the deadline, and (c) accuracy.
func RunFig9(scale Scale) (Result, error) {
	res := Result{ID: "fig9", Title: "Straggler Mitigation vs Ensemble Size (paper Figure 9)"}

	sizes := []int{2, 4, 8, 16}
	queries := 400
	if scale == Quick {
		sizes = []int{2, 8}
		queries = 150
	}

	ds := mnistStandin(1500)
	train, test := ds.Split(0.8, 9)

	for _, k := range sizes {
		for _, mitigate := range []bool{false, true} {
			row, err := runStragglerTrial(k, mitigate, queries, train, test)
			if err != nil {
				return Result{}, err
			}
			mode := "blocking "
			if mitigate {
				mode = "mitigated"
			}
			res.Lines = append(res.Lines, fmt.Sprintf(
				"ensemble=%2d %s  mean-lat=%7.2f ms  p99-lat=%7.2f ms  missing mean=%5.1f%% p99=%5.1f%%  accuracy=%.3f",
				k, mode, row.MeanLat*1e3, row.P99Lat*1e3, row.MeanMissing, row.P99Missing, row.Accuracy))
		}
	}
	return res, nil
}

// StragglerRow is one Figure 9 data point.
type StragglerRow struct {
	MeanLat     float64
	P99Lat      float64
	MeanMissing float64
	P99Missing  float64
	Accuracy    float64
}

// runStragglerTrial deploys k containers (each a random-forest-profile
// container with jitter and rare long pauses), registers an Exp4 app with
// or without a straggler deadline, and measures queries sequential
// predictions.
func runStragglerTrial(k int, mitigate bool, queries int, train, test *dataset.Dataset) (StragglerRow, error) {
	cl := core.New(core.Config{CacheSize: -1, Scheduler: rrSched()})
	defer cl.Close()

	modelNames := make([]string, k)
	for i := 0; i < k; i++ {
		// Each member trains with a different subsample and seed so
		// accuracies vary, as in the paper's random-forest ensemble.
		sub := train.Subsample(train.Len()/2, int64(i+1))
		m := models.TrainLinearSVM(fmt.Sprintf("member-%d", i), sub,
			models.LinearConfig{Epochs: 2, Lambda: 1e-4, Seed: int64(i + 10)})
		profile := frameworks.Profile{
			Name:    m.Name(),
			Fixed:   1 * time.Millisecond,
			PerItem: 100 * time.Microsecond,
			Jitter:  0.4,
			// Rare long stalls create the straggler tail.
			GCPauseEvery: 40,
			GCPause:      60 * time.Millisecond,
		}
		pred := frameworks.NewSimPredictor(m, profile, train.Dim, int64(i+77))
		if _, err := cl.Deploy(pred, nil, batching.QueueConfig{
			Controller: batching.NewAIMD(batching.AIMDConfig{SLO: Fig3SLO}),
		}); err != nil {
			return StragglerRow{}, err
		}
		modelNames[i] = m.Name()
	}

	slo := time.Duration(0)
	if mitigate {
		slo = Fig3SLO
	}
	app, err := cl.RegisterApp(core.AppConfig{
		Name: "fig9", Models: modelNames, Policy: selection.NewExp4(0.3), SLO: slo,
	})
	if err != nil {
		return StragglerRow{}, err
	}

	correct := 0
	var missing metrics.Histogram // % of the selected ensemble missing per query
	ctx := context.Background()
	for q := 0; q < queries; q++ {
		i := q % test.Len()
		resp, err := app.Predict(ctx, test.X[i])
		if err != nil {
			return StragglerRow{}, err
		}
		if resp.Label == test.Y[i] {
			correct++
		}
		if resp.Selected > 0 {
			missing.Observe(100 * float64(resp.Missing) / float64(resp.Selected))
		}
	}

	latSnap := app.PredLatency.Snapshot()
	return StragglerRow{
		MeanLat:     latSnap.Mean,
		P99Lat:      latSnap.P99,
		MeanMissing: missing.Mean(),
		P99Missing:  missing.P99(),
		Accuracy:    float64(correct) / float64(queries),
	}, nil
}
