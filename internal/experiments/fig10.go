package experiments

import (
	"context"
	"fmt"

	"clipper/internal/batching"
	"clipper/internal/core"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
	"clipper/internal/selection"
	"clipper/internal/workload"
)

// runFig10 reproduces Figure 10: personalized model selection on the
// speech (TIMIT-like) benchmark. A collection of dialect-specific models
// plus one dialect-oblivious model is deployed; simulated users from
// random dialects stream queries with feedback. Three arms are compared:
// the static dialect-matched model, the dialect-oblivious model, and
// Clipper's ensemble selection policy with per-user context state. The
// policy's error falls with feedback and approaches (or beats) the oracle
// dialect model.
func runFig10(scale Scale) (Result, error) {
	res := Result{ID: "fig10", Title: "Personalized Model Selection (paper Figure 10)"}

	cfg := dataset.SpeechConfig{N: 4000, NumDialects: 4, NumSpeakers: 80, Dim: 64, NumPhonemes: 12, Seed: 10}
	users := 30
	feedbacks := 8
	if scale == Full {
		cfg = dataset.SpeechConfig{N: 6300, NumDialects: 8, NumSpeakers: 630, Dim: 100, NumPhonemes: 20, Seed: 10}
		users = 60
	}
	ds := dataset.SpeechLike(cfg)
	train, test := ds.Split(0.7, 3)

	// Train one model per dialect plus a dialect-oblivious model.
	modelNames := make([]string, 0, cfg.NumDialects+1)
	cl := core.New(core.Config{CacheSize: 1 << 16, Scheduler: rrSched()})
	defer cl.Close()
	lcfg := models.LinearConfig{Epochs: 4, LearningRate: 0.05, Lambda: 1e-4, Seed: 2}
	// No simulated latency: the accuracy experiments measure error, not time.
	direct := frameworks.Profile{Name: "direct"}
	for d := 0; d < cfg.NumDialects; d++ {
		m := models.TrainLogisticRegression(fmt.Sprintf("dialect-%d", d), train.FilterGroup(d), lcfg)
		if _, err := cl.Deploy(frameworks.NewSimPredictor(m, direct, train.Dim, 1), nil,
			batching.QueueConfig{Controller: batching.NewFixed(16)}); err != nil {
			return Result{}, err
		}
		modelNames = append(modelNames, m.Name())
	}
	oblivious := models.TrainLogisticRegression("no-dialect", train, lcfg)
	if _, err := cl.Deploy(frameworks.NewSimPredictor(oblivious, direct, train.Dim, 1), nil,
		batching.QueueConfig{Controller: batching.NewFixed(16)}); err != nil {
		return Result{}, err
	}
	modelNames = append(modelNames, oblivious.Name())

	app, err := cl.RegisterApp(core.AppConfig{
		Name: "speech", Models: modelNames, Policy: selection.NewExp4(0.5),
	})
	if err != nil {
		return Result{}, err
	}

	// Per-feedback-count error accumulators for the three arms.
	type accum struct{ wrong, total [16]int }
	var static, noDialect, policy accum
	record := func(a *accum, k int, wrong bool) {
		if k > feedbacks {
			return
		}
		a.total[k]++
		if wrong {
			a.wrong[k]++
		}
	}

	ctx := context.Background()
	for u := 0; u < users; u++ {
		dialect := u % cfg.NumDialects
		userTest := test.FilterGroup(dialect)
		if userTest.Len() < feedbacks+1 {
			continue
		}
		sampler := workload.NewSequentialSampler(userTest.Subsample(feedbacks+1, int64(u)))
		userID := fmt.Sprintf("user-%d", u)
		for k := 0; k <= feedbacks; k++ {
			s := sampler.Next()
			// Arm 1: oracle static dialect model.
			staticPred := predictDirect(cl, modelNames[dialect], ctx, s.X)
			record(&static, k, staticPred != s.Label)
			// Arm 2: dialect-oblivious model.
			noDialectPred := predictDirect(cl, "no-dialect", ctx, s.X)
			record(&noDialect, k, noDialectPred != s.Label)
			// Arm 3: Clipper ensemble policy with per-user state.
			resp, err := app.PredictContext(ctx, userID, s.X)
			if err != nil {
				return Result{}, err
			}
			record(&policy, k, resp.Label != s.Label)
			if err := app.FeedbackContext(ctx, userID, s.X, s.Label); err != nil {
				return Result{}, err
			}
		}
	}

	rate := func(a *accum, k int) float64 {
		if a.total[k] == 0 {
			return 0
		}
		return float64(a.wrong[k]) / float64(a.total[k])
	}
	res.Lines = append(res.Lines, fmt.Sprintf("%-9s %-16s %-12s %s", "feedback", "static-dialect", "no-dialect", "clipper-policy"))
	for k := 0; k <= feedbacks; k++ {
		res.Lines = append(res.Lines, fmt.Sprintf("%-9d %-16.3f %-12.3f %.3f",
			k, rate(&static, k), rate(&noDialect, k), rate(&policy, k)))
	}
	return res, nil
}

// predictDirect queries one deployed model through its batching queue,
// bypassing any selection policy (the static arms of Figure 10).
func predictDirect(cl *core.Clipper, model string, ctx context.Context, x []float64) int {
	qs := cl.ReplicaQueues(model)
	if len(qs) == 0 {
		return -1
	}
	p, err := qs[0].Submit(ctx, x)
	if err != nil {
		return -1
	}
	return p.Label
}
