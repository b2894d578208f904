package selection

import (
	"math"

	"clipper/internal/container"
)

// exp4 is the ensemble model selection policy (paper §5.2): every deployed
// model is queried for every prediction, and the final answer is the
// weight-combined ensemble output. Feedback updates each model's weight by
// its own loss,
//
//	s_i ← s_i · exp(−η · L(y, ŷ_i)),
//
// the exponentially weighted forecaster over the model "experts". Unlike
// Exp3, Exp4's accuracy can exceed that of the best single model, at the
// cost of evaluating all models per query.
type exp4 struct {
	// Eta is the learning rate η.
	Eta float64
}

// NewExp4 returns an Exp4 policy. eta <= 0 selects 0.3.
func NewExp4(eta float64) Policy {
	if eta <= 0 {
		eta = 0.3
	}
	return &exp4{Eta: eta}
}

// Name implements Policy.
func (e *exp4) Name() string { return "exp4" }

// Init implements Policy: uniform unit weights.
func (e *exp4) Init(k int) State {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return State{Weights: w}
}

// Select implements Policy: Exp4 queries every model.
func (e *exp4) Select(s State, u float64) []int {
	out := make([]int, len(s.Weights))
	for i := range out {
		out[i] = i
	}
	return out
}

// Combine implements Policy: weighted plurality vote over the available
// predictions (weighted score averaging when all voters expose scores).
// Confidence is the fraction of the ensemble's total weight — counting
// models whose predictions are missing — that agrees with the final
// answer, so straggler-dropped predictions depress confidence exactly as
// §5.2.2 prescribes.
func (e *exp4) Combine(s State, preds []*container.Prediction) (container.Prediction, float64) {
	winner, _, agreeW, present := weightedVote(s.Weights, preds)
	if present == 0 {
		return winner, 0
	}
	fullW := 0.0
	for _, w := range s.Weights {
		fullW += w
	}
	if fullW <= 0 {
		return winner, 0
	}
	return winner, agreeW / fullW
}

// Observe implements Policy: per-expert exponential update by individual
// loss. Models with missing predictions are not updated.
func (e *exp4) Observe(s State, feedback int, preds []*container.Prediction) State {
	out := s.Clone()
	for i, p := range preds {
		if p == nil || i >= len(out.Weights) {
			continue
		}
		out.Weights[i] *= math.Exp(-e.Eta * zeroOneLoss(feedback, p.Label))
	}
	normalize(out.Weights)
	return out
}
