package selection

import "clipper/internal/container"

// static always selects one fixed model. It is the baseline the paper's
// experiments compare against: a developer who deploys a single chosen
// model (Figure 8's per-model curves, Figure 10's "static dialect" and "no
// dialect" baselines).
type static struct {
	// Index is the fixed model to query.
	Index int
}

// NewStatic returns a policy pinned to model index i.
func NewStatic(i int) Policy { return &static{Index: i} }

// Name implements Policy.
func (p *static) Name() string { return "static" }

// Init implements Policy. The state is unused but sized for consistency.
func (p *static) Init(k int) State {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return State{Weights: w}
}

// Select implements Policy.
func (p *static) Select(s State, u float64) []int {
	if p.Index < 0 || p.Index >= len(s.Weights) {
		return nil
	}
	return []int{p.Index}
}

// Combine implements Policy: the fixed model's prediction, confidence 1
// when present.
func (p *static) Combine(s State, preds []*container.Prediction) (container.Prediction, float64) {
	for _, pr := range preds {
		if pr != nil {
			return *pr, 1
		}
	}
	return container.Prediction{Label: -1}, 0
}

// Observe implements Policy: static policies do not learn.
func (p *static) Observe(s State, feedback int, preds []*container.Prediction) State {
	return s
}

// epsilonGreedy is a simple exploration baseline: with probability epsilon
// it explores a model chosen by the randomness budget; otherwise it
// exploits the lowest-estimated-loss model. It is included as an ablation
// comparator for Exp3.
type epsilonGreedy struct {
	// Epsilon is the exploration probability.
	Epsilon float64
	// Alpha is the loss-estimate EWMA factor.
	Alpha float64
}

// NewEpsilonGreedy returns an epsilon-greedy policy with sensible defaults
// for out-of-range arguments.
func NewEpsilonGreedy(epsilon, alpha float64) Policy {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.1
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.05
	}
	return &epsilonGreedy{Epsilon: epsilon, Alpha: alpha}
}

// Name implements Policy.
func (p *epsilonGreedy) Name() string { return "epsilon-greedy" }

// Init implements Policy. Weights store estimated *reward* (1 − loss),
// initialized optimistically to 1 so every arm is tried.
func (p *epsilonGreedy) Init(k int) State {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return State{Weights: w}
}

// Select implements Policy.
func (p *epsilonGreedy) Select(s State, u float64) []int {
	k := len(s.Weights)
	if k == 0 {
		return nil
	}
	if u < p.Epsilon {
		// Reuse the variate to pick a uniform arm.
		arm := int(u / p.Epsilon * float64(k))
		if arm >= k {
			arm = k - 1
		}
		return []int{arm}
	}
	best, bestV := 0, s.Weights[0]
	for i, w := range s.Weights {
		if w > bestV {
			best, bestV = i, w
		}
	}
	return []int{best}
}

// Combine implements Policy: the single queried model's prediction with
// its estimated reward as confidence.
func (p *epsilonGreedy) Combine(s State, preds []*container.Prediction) (container.Prediction, float64) {
	for i, pr := range preds {
		if pr != nil {
			conf := 0.0
			if i < len(s.Weights) {
				conf = s.Weights[i]
			}
			return *pr, conf
		}
	}
	return container.Prediction{Label: -1}, 0
}

// Observe implements Policy: EWMA update of the queried arm's reward
// estimate.
func (p *epsilonGreedy) Observe(s State, feedback int, preds []*container.Prediction) State {
	out := s.Clone()
	for i, pr := range preds {
		if pr == nil || i >= len(out.Weights) {
			continue
		}
		reward := 1 - zeroOneLoss(feedback, pr.Label)
		out.Weights[i] = (1-p.Alpha)*out.Weights[i] + p.Alpha*reward
		break
	}
	return out
}
