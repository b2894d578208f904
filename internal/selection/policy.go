// Package selection implements Clipper's model selection layer (paper §5):
// policies that choose which deployed models to query, combine their
// predictions into a final answer with a confidence estimate, and learn
// from feedback.
//
// The policy interface is the Go rendering of the paper's Listing 2:
//
//	interface SelectionPolicy<S,X,Y> {
//	    S init();
//	    List<ModelId> select(S s, X x);
//	    pair<Y,double> combine(S s, X x, Map<ModelId,Y> pred);
//	    S observe(S s, X x, Y feedback, Map<ModelId,Y> pred);
//	}
//
// State is an explicit value (not hidden in the policy) so that Clipper can
// instantiate one instance per user, context or session (§5.3) and persist
// it in an external state store.
//
// Two bandit policies from Auer et al. are provided: Exp3 (single-model
// selection, minimal overhead) and Exp4 (ensemble combination, higher
// accuracy at higher cost), plus the static baseline the experiments compare against.
package selection

import (
	"encoding/binary"
	"fmt"
	"math"

	"clipper/internal/container"
)

// State is the learned state of a selection policy: one weight per
// deployed model. It is an explicit, serializable value so Clipper can
// keep one instance per context (user/session) in an external store.
type State struct {
	Weights []float64
}

// Clone returns a deep copy.
func (s State) Clone() State {
	return State{Weights: append([]float64(nil), s.Weights...)}
}

// Marshal serializes the state (little-endian float64s).
func (s State) Marshal() []byte {
	buf := make([]byte, 4+8*len(s.Weights))
	binary.LittleEndian.PutUint32(buf, uint32(len(s.Weights)))
	for i, w := range s.Weights {
		binary.LittleEndian.PutUint64(buf[4+8*i:], math.Float64bits(w))
	}
	return buf
}

// UnmarshalState reverses State.Marshal.
func UnmarshalState(buf []byte) (State, error) {
	if len(buf) < 4 {
		return State{}, fmt.Errorf("selection: state truncated")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+8*n {
		return State{}, fmt.Errorf("selection: state truncated")
	}
	s := State{Weights: make([]float64, n)}
	for i := range s.Weights {
		s.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+8*i:]))
	}
	return s, nil
}

// Policy selects, combines and learns. Implementations must be pure with
// respect to State: all mutable learning state flows through the explicit
// State values, enabling per-context instantiation.
type Policy interface {
	// Name identifies the policy, e.g. "exp3".
	Name() string
	// Init returns the initial state for k deployed models.
	Init(k int) State
	// Select returns the indices of the models to query for this
	// prediction. u in [0,1) supplies the policy's randomness (callers
	// pass rng.Float64()), keeping policies deterministic and testable.
	Select(s State, u float64) []int
	// Combine renders the final prediction and a confidence score in
	// [0,1] from the available model outputs. preds[i] is nil when model
	// i was not selected or its prediction was dropped by straggler
	// mitigation; Combine must tolerate any subset, including all-nil.
	Combine(s State, preds []*container.Prediction) (container.Prediction, float64)
	// Observe folds feedback (the true label) into the state, given the
	// predictions that were rendered for this query.
	Observe(s State, feedback int, preds []*container.Prediction) State
}

// zeroOneLoss is the bounded 0/1 prediction loss the bandit policies consume.
func zeroOneLoss(feedback, predicted int) float64 {
	if feedback == predicted {
		return 0
	}
	return 1
}

// normalize rescales weights to sum to len(weights), preventing float
// under/overflow during long runs without changing selection
// probabilities.
func normalize(ws []float64) {
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		for i := range ws {
			ws[i] = 1
		}
		return
	}
	scale := float64(len(ws)) / sum
	for i := range ws {
		ws[i] *= scale
		if ws[i] < minWeight {
			ws[i] = minWeight
		}
	}
}

// minWeight floors weights so a failing model retains a small exploration
// probability and can be rediscovered when it recovers (Figure 8).
const minWeight = 1e-6

// weightedVote combines available predictions by weighted plurality over
// labels. It returns the winning prediction, the total weight of available
// models, the weight agreeing with the winner, and how many predictions
// were present. Score vectors, when present on every voter, are averaged
// with the same weights.
func weightedVote(ws []float64, preds []*container.Prediction) (winner container.Prediction, totalW, agreeW float64, present int) {
	votes := make(map[int]float64)
	var scoreSum []float64
	scoresComplete := true
	for i, p := range preds {
		if p == nil {
			continue
		}
		present++
		w := 1.0
		if i < len(ws) {
			w = ws[i]
		}
		totalW += w
		votes[p.Label] += w
		if p.Scores == nil {
			scoresComplete = false
		} else {
			if scoreSum == nil {
				scoreSum = make([]float64, len(p.Scores))
			}
			if len(scoreSum) == len(p.Scores) {
				for c, v := range p.Scores {
					scoreSum[c] += w * v
				}
			} else {
				scoresComplete = false
			}
		}
	}
	if present == 0 {
		return container.Prediction{Label: -1}, 0, 0, 0
	}
	bestLabel, bestW := -1, math.Inf(-1)
	for label, w := range votes {
		if w > bestW || (w == bestW && label < bestLabel) {
			bestLabel, bestW = label, w
		}
	}
	winner = container.Prediction{Label: bestLabel}
	if scoresComplete && scoreSum != nil && totalW > 0 {
		for c := range scoreSum {
			scoreSum[c] /= totalW
		}
		winner.Scores = scoreSum
	}
	return winner, totalW, votes[bestLabel], present
}
