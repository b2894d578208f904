package experiments

import (
	"context"
	"fmt"
	"time"

	"clipper/internal/batching"
	"clipper/internal/core"
	"clipper/internal/frameworks"
	"clipper/internal/models"
	"clipper/internal/selection"
	"clipper/internal/workload"
)

// runCacheFeedback reproduces the §4.2 claim: with a four-model ensemble,
// prediction caching raises feedback-processing throughput by ~1.6× (the
// paper: 6K → 11K observations/s) because the feedback join finds the
// models' recent predictions in the cache instead of re-evaluating them.
func runCacheFeedback(scale Scale) (Result, error) {
	res := Result{ID: "cache16", Title: "Feedback Throughput With and Without Caching (paper §4.2)"}

	nFeedback := 400
	trainN := 800
	if scale == Full {
		nFeedback = 2000
		trainN = 2000
	}
	ds := mnistStandin(trainN)
	train, test := ds.Split(0.8, 2)

	// The paper's ensemble: random forest, logistic regression, linear
	// SVM (SKLearn) and linear SVM (Spark), each behind its framework
	// profile.
	build := func(cacheSize int) (*core.Clipper, *core.Application, error) {
		cl := core.New(core.Config{CacheSize: cacheSize, Scheduler: rrSched()})
		type pair struct {
			m models.Model
			p frameworks.Profile
		}
		pairs := []pair{
			{models.TrainRandomForest("rf", train, models.TreeConfig{Trees: 5, MaxDepth: 8, Seed: 1}), frameworks.SKLearnRandomForest()},
			{models.TrainLogisticRegression("logreg", train, models.DefaultLinearConfig()), frameworks.SKLearnLogisticRegression()},
			{models.TrainLinearSVM("linsvm", train, models.DefaultLinearConfig()), frameworks.SKLearnLinearSVM()},
			{models.TrainLinearSVM("sparksvm", train, models.DefaultLinearConfig()), frameworks.PySparkLinearSVM()},
		}
		names := make([]string, len(pairs))
		for i, pr := range pairs {
			pred := frameworks.NewSimPredictor(pr.m, pr.p, train.Dim, int64(i+1))
			if _, err := cl.Deploy(pred, nil, batching.QueueConfig{
				Controller: batching.NewAIMD(batching.AIMDConfig{SLO: fig3SLO}),
			}); err != nil {
				cl.Close()
				return nil, nil, err
			}
			names[i] = pr.m.Name()
		}
		app, err := cl.RegisterApp(core.AppConfig{
			Name: "cachebench", Models: names, Policy: selection.NewExp4(0.3),
		})
		if err != nil {
			cl.Close()
			return nil, nil, err
		}
		return cl, app, nil
	}

	measure := func(cacheSize int) (float64, error) {
		cl, app, err := build(cacheSize)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		ctx := context.Background()
		sampler := workload.NewSequentialSampler(test)
		samples := make([]workload.Sample, nFeedback)
		for i := range samples {
			samples[i] = sampler.Next()
		}
		// Serve the predictions first, as an application would; this
		// warms the cache when one exists.
		for _, s := range samples {
			if _, err := app.Predict(ctx, s.X); err != nil {
				return 0, err
			}
		}
		// Feedback arrives shortly after the predictions (the paper's
		// assumption, citing ad-click joins); measure its throughput.
		start := time.Now()
		for _, s := range samples {
			if err := app.Feedback(ctx, s.X, s.Label); err != nil {
				return 0, err
			}
		}
		return float64(nFeedback) / time.Since(start).Seconds(), nil
	}

	withCache, err := measure(1 << 16)
	if err != nil {
		return Result{}, err
	}
	withoutCache, err := measure(-1)
	if err != nil {
		return Result{}, err
	}
	res.Lines = append(res.Lines,
		fmt.Sprintf("feedback throughput with cache:    %8.0f obs/s", withCache),
		fmt.Sprintf("feedback throughput without cache: %8.0f obs/s", withoutCache),
		fmt.Sprintf("speedup: %.2fx (paper: 1.6x)", withCache/withoutCache))
	return res, nil
}
