package experiments

import (
	"fmt"
	"math/rand"

	"clipper/internal/container"
	"clipper/internal/models"
	"clipper/internal/selection"
)

// runFig8 reproduces Figure 8: the behavior of Exp3 and Exp4 under model
// failure. Five models of varying accuracy serve 20K sequential queries
// with immediate feedback; after 25% of the run the best model's
// predictions are corrupted, and after 50% it recovers. The cumulative
// average error of each static model and of both selection policies is
// reported; the policies must converge near the best model, absorb the
// failure, and re-converge after recovery.
func runFig8(scale Scale) (Result, error) {
	res := Result{ID: "fig8", Title: "Exp3 and Exp4 Under Model Failure (paper Figure 8)"}

	totalQueries := 20000
	trainN := 3000
	if scale == Quick {
		totalQueries = 4000
		trainN = 1200
	}
	degradeAt, recoverAt := totalQueries/4, totalQueries/2

	ds := cifarStandin(trainN)
	train, test := ds.Split(0.7, 5)

	// Five models with deliberately varied capacity and training budget,
	// mirroring the paper's "five Caffe models with varying levels of
	// accuracy".
	ens := []models.Model{
		models.TrainNaiveBayes("model1", train),
		models.TrainDecisionTree("model2", train, models.TreeConfig{MaxDepth: 6, Seed: 2}),
		models.TrainLogisticRegression("model3", train, models.LinearConfig{Epochs: 1, LearningRate: 0.02, Seed: 3}),
		models.TrainLinearSVM("model4", train, models.LinearConfig{Epochs: 3, Lambda: 1e-4, Seed: 4}),
		models.TrainMLP("model5", train, models.MLPConfig{Hidden: []int{96}, Epochs: 12, LearningRate: 0.02, BatchSize: 32, Seed: 5}),
	}

	// Identify the best model up front; it is the one that degrades.
	bestIdx, bestErr := 0, 1.0
	for i, m := range ens {
		if e := models.ErrorRate(m, test.X, test.Y); e < bestErr {
			bestIdx, bestErr = i, e
		}
	}

	// Arms under comparison: each static model, Exp3, Exp4.
	type arm struct {
		name   string
		policy selection.Policy
		state  selection.State
		wrong  int
		count  int
	}
	arms := make([]*arm, 0, len(ens)+2)
	for i := range ens {
		a := &arm{name: fmt.Sprintf("model %d (static)", i+1), policy: selection.NewStatic(i)}
		a.state = a.policy.Init(len(ens))
		arms = append(arms, a)
	}
	exp3 := &arm{name: "Exp3", policy: selection.NewExp3(0.1)}
	exp3.state = exp3.policy.Init(len(ens))
	exp4 := &arm{name: "Exp4", policy: selection.NewExp4(0.3)}
	exp4.state = exp4.policy.Init(len(ens))
	arms = append(arms, exp3, exp4)

	rng := rand.New(rand.NewSource(8))
	degradeRng := rand.New(rand.NewSource(88))
	nClasses := ds.NumClasses

	preds := make([]*container.Prediction, len(ens))
	for q := 0; q < totalQueries; q++ {
		i := q % test.Len()
		x, truth := test.X[i], test.Y[i]
		degraded := q >= degradeAt && q < recoverAt

		// Evaluate every model once; all arms share the outputs.
		for mi, m := range ens {
			label := m.Predict(x)
			if degraded && mi == bestIdx {
				label = degradeRng.Intn(nClasses)
			}
			preds[mi] = &container.Prediction{Label: label}
		}

		for _, a := range arms {
			sel := a.policy.Select(a.state, rng.Float64())
			visible := make([]*container.Prediction, len(ens))
			for _, mi := range sel {
				visible[mi] = preds[mi]
			}
			final, _ := a.policy.Combine(a.state, visible)
			a.count++
			if final.Label != truth {
				a.wrong++
			}
			a.state = a.policy.Observe(a.state, truth, visible)
		}
	}

	res.Lines = append(res.Lines, fmt.Sprintf(
		"run: %d queries, best model (model %d, err %.3f) degraded on [%d,%d)",
		totalQueries, bestIdx+1, bestErr, degradeAt, recoverAt))
	for _, a := range arms {
		res.Lines = append(res.Lines, fmt.Sprintf(
			"  %-18s cumulative error = %.4f", a.name, float64(a.wrong)/float64(a.count)))
	}

	// The figure's claim: the adaptive policies end below every static
	// arm that isn't the (temporarily degraded) best model, and within
	// striking distance of the best.
	return res, nil
}
