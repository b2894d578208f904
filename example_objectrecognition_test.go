package clipper_test

import (
	"context"
	"testing"
	"time"

	"clipper"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
	"clipper/internal/workload"
)

// TestExampleObjectRecognition is the paper's motivating computer-vision
// scenario (§2.1): five models of varying accuracy serve one application
// through an Exp4 ensemble policy. The application reports confidence with
// each prediction, learns from feedback which models to trust, and —
// Figure 8's scenario — keeps serving when its best model starts failing,
// because the bandit down-weights it within a feedback window.
//
// What to look at: the accuracy of each phase (go test -v logs the trace)
// and Response.Confidence as the ensemble's agreement measure. The replies
// gather under a 50 ms SLO, so a late model can move an accuracy; the test
// checks the scenario's claim, not the figures: accuracy drops while the
// best model is degraded, the ensemble down-weights it, and accuracy comes
// back once the model recovers.
func TestExampleObjectRecognition(t *testing.T) {
	// A CIFAR-like object recognition task (reduced dims for a fast demo).
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "objects", N: 3000, Dim: 96, NumClasses: 10,
		Separation: 3.2, Noise: 1.0, LabelNoise: 0.04, Seed: 33,
	})
	train, test := ds.Split(2.0/3, 5)

	cl := clipper.New(clipper.Config{})
	defer cl.Close()

	// Deploy the Table 2 ensemble stand-ins, each behind its own
	// container and adaptive queue; keep handles to inject a failure.
	ensemble := models.TrainEnsemble(train)
	names := make([]string, len(ensemble))
	degradables := make([]*workload.Degradable, len(ensemble))
	best, bestAcc := 0, 0.0
	for i, m := range ensemble {
		pred := frameworks.NewSimPredictor(m, frameworks.SKLearnLogisticRegression(), ds.Dim, int64(i))
		deg := workload.NewDegradable(pred, ds.NumClasses, int64(i+50))
		if _, err := cl.Deploy(deg, nil, clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		names[i] = m.Name()
		degradables[i] = deg
		acc := models.Accuracy(m, test.X, test.Y)
		if acc > bestAcc {
			best, bestAcc = i, acc
		}
		t.Logf("deployed %-18s accuracy %.3f", m.Name(), acc)
	}

	app, err := cl.RegisterApp(clipper.AppConfig{
		Name:                "object-recognition",
		Models:              names,
		Policy:              clipper.NewExp4(0.4),
		SLO:                 50 * time.Millisecond,
		ConfidenceThreshold: 0.6,
		DefaultLabel:        -1, // "don't know" — the sensible default action
	})
	if err != nil {
		t.Fatal(err)
	}

	// Queries walk the test set in order, and each phase takes fresh ones:
	// a repeated input is answered from the prediction cache (by design —
	// selection happens above the cache), which would hide the injected
	// failure. The 1,000-point set holds the three phases' 900 queries.
	ctx := context.Background()
	nextQuery := 0
	phase := func(name string, queries int) float64 {
		if nextQuery+queries > test.Len() {
			t.Fatalf("%s needs %d fresh queries, %d are left", name, queries, test.Len()-nextQuery)
		}
		correct, defaults := 0, 0
		for i := 0; i < queries; i++ {
			x, truth := test.X[nextQuery], test.Y[nextQuery]
			nextQuery++
			resp, err := app.Predict(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if resp.UsedDefault {
				defaults++
			} else if resp.Label == truth {
				correct++
			}
			if err := app.Feedback(ctx, x, truth); err != nil {
				t.Fatal(err)
			}
		}
		acc := float64(correct) / float64(queries-defaults)
		t.Logf("%-22s accuracy=%.3f (of answered)  declined=%d/%d", name, acc, defaults, queries)
		return acc
	}
	weight := func() float64 {
		state, err := app.State("")
		if err != nil {
			t.Fatal(err)
		}
		return state.Weights[best]
	}

	healthy := phase("healthy ensemble:", 300)
	trusted := weight()

	// Degrade the best model; the ensemble policy compensates via
	// feedback without human intervention.
	degradables[best].SetDegraded(true)
	t.Logf("!! degrading %s", names[best])
	degraded := phase("degraded, adapting:", 300)
	distrusted := weight()
	degradables[best].SetDegraded(false)
	t.Logf("!! %s recovered", names[best])
	recovered := phase("recovered:", 300)

	if degraded >= healthy {
		t.Errorf("accuracy %.3f while %s was degraded, want below the healthy %.3f", degraded, names[best], healthy)
	}
	if distrusted >= trusted {
		t.Errorf("%s weight %.3g after degradation, want below its healthy %.3g", names[best], distrusted, trusted)
	}
	if recovered <= degraded {
		t.Errorf("accuracy %.3f after %s recovered, want above the degraded %.3f", recovered, names[best], degraded)
	}
}
