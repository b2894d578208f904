package clipper_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"clipper"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

// Example_quickstart is the minimal Clipper workflow: train a small model,
// deploy it behind an adaptive batching queue (Deploy with AIMD tuned to a
// 20 ms batch-latency SLO via DefaultQueueConfig), register an application
// over it, issue predictions, and send feedback. Start here.
//
// The three calls — clipper.New, Deploy, RegisterApp — are the shape of the
// package doc's quickstart. The application sets no AppConfig.SLO, so every
// reply waits for the model and the output is exact; app.PredLatency holds
// the latency histogram. Next steps: TestExampleCluster for remote
// containers and replicas, TestExampleCascade for model composition.
func Example_quickstart() {
	// 1. Train a model. Any container.Predictor works; here a linear SVM
	// on a synthetic digit-like task, wrapped in a Scikit-Learn-style
	// latency profile.
	ds := dataset.MNISTLike(2000, 42)
	train, test := ds.Split(0.8, 7)
	svm := models.TrainLinearSVM("digits-svm", train, models.DefaultLinearConfig())
	fmt.Printf("trained %s: test accuracy %.3f\n", svm.Name(), models.Accuracy(svm, test.X, test.Y))

	// 2. Start Clipper and deploy the model behind an adaptive batching
	// queue with a 20ms latency SLO.
	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	pred := frameworks.NewSimPredictor(svm, frameworks.SKLearnLinearSVM(), ds.Dim, 1)
	if _, err := cl.Deploy(pred, nil, clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
		log.Fatal(err)
	}

	// 3. Register an application over the model.
	app, err := cl.RegisterApp(clipper.AppConfig{
		Name:   "quickstart",
		Models: []string{"digits-svm"},
		Policy: clipper.NewExp3(0.1),
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Predict and send feedback.
	ctx := context.Background()
	correct := 0
	for i := 0; i < 50; i++ {
		x, truth := test.X[i], test.Y[i]
		resp, err := app.Predict(ctx, x)
		if err != nil {
			log.Fatal(err)
		}
		if resp.Label == truth {
			correct++
		}
		if err := app.Feedback(ctx, x, truth); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("served 50 predictions: %d correct\n", correct)

	// 5. The prediction cache made the feedback joins free.
	hits, misses := cl.Cache().Stats()
	fmt.Printf("prediction cache: %d hits, %d misses\n", hits, misses)

	// Output:
	// trained digits-svm: test accuracy 0.792
	// served 50 predictions: 36 correct
	// prediction cache: 50 hits, 50 misses
}
