package selection

import (
	"math"

	"clipper/internal/container"
)

// exp3 is the single-model selection policy (paper §5.1): the randomized
// exp3 bandit algorithm of Auer et al. It queries exactly one model per
// prediction — chosen with probability proportional to its weight — and on
// feedback applies the importance-weighted exponential update
//
//	s_i ← s_i · exp(−η · L(y, ŷ) / p_i)
//
// for the selected model i. It is cheap (one model evaluation per query)
// and converges to the best single model; its accuracy is bounded by that
// model's accuracy.
type exp3 struct {
	// Eta is the learning rate η: how quickly the policy responds to
	// recent feedback.
	Eta float64
}

// NewExp3 returns an Exp3 policy. eta <= 0 selects 0.1.
func NewExp3(eta float64) Policy {
	if eta <= 0 {
		eta = 0.1
	}
	return &exp3{Eta: eta}
}

// Name implements Policy.
func (e *exp3) Name() string { return "exp3" }

// Init implements Policy: uniform unit weights.
func (e *exp3) Init(k int) State {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return State{Weights: w}
}

// Select implements Policy: samples one model index from the weight
// distribution using the supplied uniform variate.
func (e *exp3) Select(s State, u float64) []int {
	k := len(s.Weights)
	if k == 0 {
		return nil
	}
	sum := 0.0
	for _, w := range s.Weights {
		sum += w
	}
	if sum <= 0 {
		return []int{0}
	}
	target := u * sum
	acc := 0.0
	for i, w := range s.Weights {
		acc += w
		if target < acc {
			return []int{i}
		}
	}
	return []int{k - 1}
}

// Combine implements Policy: with a single model queried, its prediction
// is the answer. Confidence is the selected model's selection probability —
// the policy's own belief in that arm. With no prediction available
// (straggler), it returns label −1 and zero confidence.
func (e *exp3) Combine(s State, preds []*container.Prediction) (container.Prediction, float64) {
	sum := 0.0
	for _, w := range s.Weights {
		sum += w
	}
	for i, p := range preds {
		if p == nil {
			continue
		}
		conf := 0.0
		if sum > 0 && i < len(s.Weights) {
			conf = s.Weights[i] / sum
		}
		return *p, conf
	}
	return container.Prediction{Label: -1}, 0
}

// Observe implements Policy: importance-weighted exponential update of the
// selected model's weight.
func (e *exp3) Observe(s State, feedback int, preds []*container.Prediction) State {
	out := s.Clone()
	sum := 0.0
	for _, w := range out.Weights {
		sum += w
	}
	if sum <= 0 {
		return out
	}
	for i, p := range preds {
		if p == nil || i >= len(out.Weights) {
			continue
		}
		pi := out.Weights[i] / sum
		if pi <= 0 {
			pi = minWeight
		}
		loss := zeroOneLoss(feedback, p.Label)
		out.Weights[i] *= math.Exp(-e.Eta * loss / pi)
		break // exp3 queries exactly one model
	}
	normalize(out.Weights)
	return out
}
