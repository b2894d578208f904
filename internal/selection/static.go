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
