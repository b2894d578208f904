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

// Example_speechPersonalization is the paper's TIMIT speech scenario (§5.3,
// Figure 10): dialect-specific phoneme models plus one dialect-oblivious
// model are deployed, and per-user selection contexts let Clipper learn
// each user's best model (or combination) from feedback. Personalized
// selection beats both the one-size-fits-all model and the user's nominal
// dialect model.
//
// What to look at: PredictContext/FeedbackContext with a per-user context
// id. The selection state is keyed by context and persisted in the state
// store, which is what makes personalization survive restarts when a
// durable store is configured.
func Example_speechPersonalization() {
	cfg := dataset.SpeechConfig{
		N: 5000, NumDialects: 4, NumSpeakers: 80, Dim: 64, NumPhonemes: 12, Seed: 10,
	}
	ds := dataset.SpeechLike(cfg)
	train, test := ds.Split(0.75, 3)

	cl := clipper.New(clipper.Config{})
	defer cl.Close()
	deploy := func(m models.Model, seed int64) {
		pred := frameworks.NewSimPredictor(m, frameworks.SKLearnLogisticRegression(), ds.Dim, seed)
		if _, err := cl.Deploy(pred, nil, clipper.DefaultQueueConfig(20*time.Millisecond)); err != nil {
			log.Fatal(err)
		}
	}

	// One model per dialect plus a dialect-oblivious model.
	lcfg := models.LinearConfig{Epochs: 4, LearningRate: 0.05, Lambda: 1e-4, Seed: 2}
	names := make([]string, 0, cfg.NumDialects+1)
	for d := 0; d < cfg.NumDialects; d++ {
		m := models.TrainLogisticRegression(fmt.Sprintf("dialect-%d", d), train.FilterGroup(d), lcfg)
		deploy(m, int64(d))
		names = append(names, m.Name())
	}
	oblivious := models.TrainLogisticRegression("no-dialect", train, lcfg)
	deploy(oblivious, 99)
	names = append(names, oblivious.Name())

	app, err := cl.RegisterApp(clipper.AppConfig{
		Name:   "speech",
		Models: names,
		Policy: clipper.NewExp4(0.5),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Simulate users: each has a dialect and interacts with the service,
	// providing feedback (corrected transcriptions).
	ctx := context.Background()
	const users, interactions = 24, 20
	wrongEarly, wrongLate, early, late := 0, 0, 0, 0
	for u := 0; u < users; u++ {
		dialect := u % cfg.NumDialects
		userData := test.FilterGroup(dialect).Subsample(interactions, int64(u))
		userID := fmt.Sprintf("user-%d", u)
		for k := 0; k < userData.Len(); k++ {
			x, truth := userData.X[k], userData.Y[k]
			resp, err := app.PredictContext(ctx, userID, x)
			if err != nil {
				log.Fatal(err)
			}
			wrong := 0
			if resp.Label != truth {
				wrong = 1
			}
			if k < interactions/2 {
				early++
				wrongEarly += wrong
			} else {
				late++
				wrongLate += wrong
			}
			if err := app.FeedbackContext(ctx, userID, x, truth); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("per-user personalization over %d users:\n", users)
	fmt.Printf("  error in first %d interactions: %.3f\n", interactions/2, float64(wrongEarly)/float64(early))
	fmt.Printf("  error in last  %d interactions: %.3f\n", interactions/2, float64(wrongLate)/float64(late))

	// Peek at one user's learned state: the weight mass should sit on
	// the models that fit their dialect.
	state, _ := app.State("user-0")
	fmt.Printf("user-0 (dialect 0) model weights: %.3f\n", state.Weights)

	// Output:
	// per-user personalization over 24 users:
	//   error in first 10 interactions: 0.271
	//   error in last  10 interactions: 0.246
	// user-0 (dialect 0) model weights: [3.993 0.016 0.027 0.073 0.891]
}
