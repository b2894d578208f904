package experiments

import (
	"context"
	"fmt"
	"time"

	"clipper/internal/batching"
	"clipper/internal/core"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
	"clipper/internal/selection"
)

// RunCascade evaluates the model-composition extension (the paper's
// introduction motivates combining models; cascades are the canonical
// latency-aware composition): a cheap linear model answers the
// queries it is confident about, and only uncertain queries escalate to an
// expensive kernel-machine ensemble. The cascade should approach the
// ensemble's accuracy at a fraction of its mean latency.
func RunCascade(scale Scale) (Result, error) {
	res := Result{ID: "extension-cascade", Title: "Cascade (model composition) extension"}

	n := 1500
	queries := 250
	if scale == Full {
		n = 3000
		queries = 600
	}
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "cascade", N: n, Dim: 32, NumClasses: 4,
		Separation: 3.0, Noise: 1.1, LabelNoise: 0.03, Seed: 17,
	})
	train, test := ds.Split(0.8, 3)

	cheap := models.TrainLogisticRegression("cheap-linear", train, models.DefaultLinearConfig())
	heavy := models.TrainKernelMachine("heavy-kernel", train,
		models.KernelConfig{Landmarks: 256, Linear: models.DefaultLinearConfig(), Seed: 1})

	build := func(cascade *core.CascadeConfig) (*core.Clipper, *core.Application, error) {
		cl := core.New(core.Config{CacheSize: -1, Scheduler: rrSched()})
		cheapPred := frameworks.NewSimPredictor(cheap, frameworks.Profile{
			Name: cheap.Name(), Fixed: 150 * time.Microsecond, PerItem: 10 * time.Microsecond,
		}, train.Dim, 1)
		heavyPred := frameworks.NewSimPredictor(heavy, frameworks.Profile{
			Name: heavy.Name(), Fixed: 300 * time.Microsecond, PerItem: 1800 * time.Microsecond,
		}, train.Dim, 2)
		if _, err := cl.Deploy(cheapPred, nil, batching.QueueConfig{
			Controller: batching.NewAIMD(batching.AIMDConfig{SLO: Fig3SLO}),
		}); err != nil {
			cl.Close()
			return nil, nil, err
		}
		if _, err := cl.Deploy(heavyPred, nil, batching.QueueConfig{
			Controller: batching.NewAIMD(batching.AIMDConfig{SLO: Fig3SLO}),
		}); err != nil {
			cl.Close()
			return nil, nil, err
		}
		app, err := cl.RegisterApp(core.AppConfig{
			Name:    "cascade",
			Models:  []string{cheap.Name(), heavy.Name()},
			Policy:  selection.NewExp4(0.3),
			Cascade: cascade,
		})
		if err != nil {
			cl.Close()
			return nil, nil, err
		}
		return cl, app, nil
	}

	measure := func(cascade *core.CascadeConfig) (acc, meanLatMS, stage1Frac float64, err error) {
		cl, app, err := build(cascade)
		if err != nil {
			return 0, 0, 0, err
		}
		defer cl.Close()
		ctx := context.Background()
		correct, stage1 := 0, 0
		for i := 0; i < queries; i++ {
			idx := i % test.Len()
			resp, err := app.Predict(ctx, test.X[idx])
			if err != nil {
				return 0, 0, 0, err
			}
			if resp.Label == test.Y[idx] {
				correct++
			}
			if resp.Stage == 1 {
				stage1++
			}
		}
		snap := app.PredLatency.Snapshot()
		return float64(correct) / float64(queries), snap.Mean * 1e3,
			float64(stage1) / float64(queries), nil
	}

	for _, arm := range []struct {
		name    string
		cascade *core.CascadeConfig
	}{
		{"full ensemble (no cascade)", nil},
		{"cascade threshold=0.85", &core.CascadeConfig{First: []int{0}, Threshold: 0.85}},
		{"cascade threshold=0.60", &core.CascadeConfig{First: []int{0}, Threshold: 0.60}},
	} {
		acc, lat, s1, err := measure(arm.cascade)
		if err != nil {
			return Result{}, err
		}
		res.Lines = append(res.Lines, fmt.Sprintf(
			"%-28s accuracy=%.3f  mean-latency=%7.3f ms  answered-by-stage-1=%3.0f%%",
			arm.name, acc, lat, 100*s1))
	}
	return res, nil
}
