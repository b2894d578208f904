package clipper_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clipper"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

// TestExampleCascade is two-stage cascade serving (model composition): a
// cheap linear model answers the queries it is confident about, and only
// uncertain queries escalate to an expensive boosted-tree ensemble. The
// application keeps most of the ensemble's accuracy at a fraction of its
// mean latency — the cost/accuracy trade the paper's model selection layer
// is built to exploit.
//
// What to look at: CascadeConfig on the application — the confidence
// threshold that decides when the first stage's answer stands — and the
// accuracy/latency comparison of cascade vs. always-ensemble that go test
// -v logs. Latency depends on the machine, so the test checks the rest of
// the claim: the cheap path answers most queries, and the cascade keeps
// most of the ensemble's accuracy.
func TestExampleCascade(t *testing.T) {
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "cascade-demo", N: 2500, Dim: 32, NumClasses: 4,
		Separation: 3.0, Noise: 1.1, LabelNoise: 0.03, Seed: 17,
	})
	train, test := ds.Split(0.8, 3)

	cheap := models.TrainLogisticRegression("cheap-linear", train, models.DefaultLinearConfig())
	heavy := models.TrainGBDT("heavy-gbdt", train, models.DefaultGBDTConfig())
	t.Logf("cheap model accuracy: %.3f", models.Accuracy(cheap, test.X, test.Y))
	t.Logf("heavy model accuracy: %.3f", models.Accuracy(heavy, test.X, test.Y))

	cl := clipper.New(clipper.Config{CacheSize: -1}) // measure models, not the cache
	defer cl.Close()
	deploy := func(m models.Model, fixed, perItem time.Duration, seed int64) {
		pred := frameworks.NewSimPredictor(m, frameworks.Profile{
			Name: m.Name(), Fixed: fixed, PerItem: perItem,
		}, ds.Dim, seed)
		if _, err := cl.Deploy(pred, nil, clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	deploy(cheap, 150*time.Microsecond, 10*time.Microsecond, 1)
	deploy(heavy, 300*time.Microsecond, 1500*time.Microsecond, 2)

	// run serves 400 queries through a new application and returns its
	// accuracy and the share the cheap path answered.
	run := func(name string, cascade *clipper.CascadeConfig) (acc, cheapShare float64) {
		app, err := cl.RegisterApp(clipper.AppConfig{
			Name:    name,
			Models:  []string{"cheap-linear", "heavy-gbdt"},
			Policy:  clipper.NewExp4(0.3),
			Cascade: cascade,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		correct, stage1 := 0, 0
		const queries = 400
		for i := 0; i < queries; i++ {
			idx := i % test.Len()
			resp, err := app.Predict(ctx, test.X[idx])
			if err != nil {
				t.Fatal(err)
			}
			if resp.Label == test.Y[idx] {
				correct++
			}
			if resp.Stage == 1 {
				stage1++
			}
		}
		acc, cheapShare = float64(correct)/queries, float64(stage1)/queries
		t.Logf("%-24s accuracy=%.3f  mean-latency=%6.3fms  cheap-path=%3.0f%%",
			name, acc, app.PredLatency.Snapshot().Mean*1e3, 100*cheapShare)
		return acc, cheapShare
	}

	full, fullCheap := run("full-ensemble", nil)
	if fullCheap != 0 {
		t.Errorf("full ensemble answered %.0f%% from the cheap path, want 0", 100*fullCheap)
	}
	for _, threshold := range []float64{0.85, 0.60} {
		acc, cheapShare := run(fmt.Sprintf("cascade-%.2f", threshold),
			&clipper.CascadeConfig{First: []int{0}, Threshold: threshold})
		if cheapShare <= 0.5 {
			t.Errorf("cascade at %.2f answered %.0f%% from the cheap path, want most", threshold, 100*cheapShare)
		}
		if acc < 0.9*full {
			t.Errorf("cascade at %.2f accuracy %.3f, want at least 90%% of the full ensemble's %.3f", threshold, acc, full)
		}
	}
}
