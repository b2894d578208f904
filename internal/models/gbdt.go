package models

import (
	"math/rand"
	"sort"

	"clipper/internal/dataset"
)

// gbdt is a multiclass gradient-boosted decision tree ensemble trained
// with softmax cross-entropy (the algorithm family of XGBoost, which the
// paper cites as a serving target). Each boosting round fits one
// regression tree per class to the softmax residuals and applies a
// Newton-step leaf value, as in Friedman's gradient boosting.
//
// At inference time the per-class score is the sum of that class's tree
// outputs — per-item cost grows with rounds × depth, placing GBDT between
// the linear models and the kernel machine in the container latency
// spectrum.
type gbdt struct {
	name    string
	trees   [][]*regNode // [round][class]
	lr      float64
	classes int
	dim     int
}

// GBDTConfig holds boosting hyperparameters.
type GBDTConfig struct {
	// Rounds is the number of boosting rounds; 0 selects 20.
	Rounds int
	// Depth bounds each regression tree; 0 selects 3.
	Depth int
	// LearningRate shrinks each tree's contribution; 0 selects 0.3.
	LearningRate float64
	// MinLeaf is the minimum examples per leaf; 0 selects 5.
	MinLeaf int
	// SampleFraction is the per-round stochastic subsample; 0 selects 0.8.
	SampleFraction float64
	// FeatureFraction is the per-split feature subsample; 0 selects 1.
	FeatureFraction float64
	// Seed drives sampling.
	Seed int64
}

// DefaultGBDTConfig returns hyperparameters suited to the synthetic
// benchmarks.
func DefaultGBDTConfig() GBDTConfig {
	return GBDTConfig{Rounds: 20, Depth: 3, LearningRate: 0.3, MinLeaf: 5, SampleFraction: 0.8, FeatureFraction: 1, Seed: 1}
}

// regNode is a regression tree node; leaves carry a Newton-step value.
type regNode struct {
	feature   int
	threshold float64
	left      *regNode
	right     *regNode
	value     float64
}

func (n *regNode) isLeaf() bool { return n.feature < 0 }

func (n *regNode) eval(x []float64) float64 {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// TrainGBDT trains a boosted ensemble on ds.
func TrainGBDT(name string, ds *dataset.Dataset, cfg GBDTConfig) Model {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 20
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 3
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.3
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 5
	}
	if cfg.SampleFraction <= 0 || cfg.SampleFraction > 1 {
		cfg.SampleFraction = 0.8
	}
	if cfg.FeatureFraction <= 0 || cfg.FeatureFraction > 1 {
		cfg.FeatureFraction = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := ds.Len()
	k := ds.NumClasses
	m := &gbdt{name: name, lr: cfg.LearningRate, classes: k, dim: ds.Dim}

	// Current per-example, per-class scores F.
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, k)
	}
	probs := make([]float64, k)
	grad := make([][]float64, k) // per class: residuals y - p
	hess := make([][]float64, k) // per class: p(1-p)
	for c := 0; c < k; c++ {
		grad[c] = make([]float64, n)
		hess[c] = make([]float64, n)
	}

	for round := 0; round < cfg.Rounds; round++ {
		// Gradients under the current model.
		for i := 0; i < n; i++ {
			copy(probs, scores[i])
			softmaxInPlace(probs)
			for c := 0; c < k; c++ {
				target := 0.0
				if ds.Y[i] == c {
					target = 1.0
				}
				grad[c][i] = target - probs[c]
				hess[c][i] = probs[c] * (1 - probs[c])
			}
		}
		// Stochastic subsample for this round.
		sample := rng.Perm(n)
		if cfg.SampleFraction < 1 {
			sample = sample[:int(cfg.SampleFraction*float64(n))]
		}
		roundTrees := make([]*regNode, k)
		for c := 0; c < k; c++ {
			tree := growRegTree(ds, sample, grad[c], hess[c], cfg, rng, 0)
			roundTrees[c] = tree
			// Update scores with the shrunken tree output.
			for i := 0; i < n; i++ {
				scores[i][c] += cfg.LearningRate * tree.eval(ds.X[i])
			}
		}
		m.trees = append(m.trees, roundTrees)
	}
	return m
}

// growRegTree fits a depth-bounded regression tree to (grad, hess) with
// variance-reduction splits and Newton leaf values sum(g)/(sum(h)+eps).
func growRegTree(ds *dataset.Dataset, idx []int, grad, hess []float64, cfg GBDTConfig, rng *rand.Rand, depth int) *regNode {
	leaf := func() *regNode {
		var g, h float64
		for _, i := range idx {
			g += grad[i]
			h += hess[i]
		}
		v := g / (h + 1e-6)
		// Clip the Newton step for stability.
		if v > 4 {
			v = 4
		}
		if v < -4 {
			v = -4
		}
		return &regNode{feature: -1, value: v}
	}
	if depth >= cfg.Depth || len(idx) < 2*cfg.MinLeaf {
		return leaf()
	}
	feat, thresh, ok := bestRegSplit(ds, idx, grad, cfg, rng)
	if !ok {
		return leaf()
	}
	var left, right []int
	for _, i := range idx {
		if ds.X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return leaf()
	}
	return &regNode{
		feature:   feat,
		threshold: thresh,
		left:      growRegTree(ds, left, grad, hess, cfg, rng, depth+1),
		right:     growRegTree(ds, right, grad, hess, cfg, rng, depth+1),
	}
}

// bestRegSplit maximizes the reduction in squared-error of the gradient
// targets (equivalently the gain of the one-step Newton objective with
// unit hessians), scanning a feature subsample.
func bestRegSplit(ds *dataset.Dataset, idx []int, grad []float64, cfg GBDTConfig, rng *rand.Rand) (feat int, thresh float64, ok bool) {
	nFeat := int(cfg.FeatureFraction * float64(ds.Dim))
	if nFeat < 1 {
		nFeat = 1
	}
	features := rng.Perm(ds.Dim)[:nFeat]

	total := float64(len(idx))
	var sumG float64
	for _, i := range idx {
		sumG += grad[i]
	}
	baseScore := sumG * sumG / total

	type fv struct {
		v float64
		g float64
	}
	vals := make([]fv, len(idx))
	bestGain := 1e-9
	for _, f := range features {
		for j, i := range idx {
			vals[j] = fv{v: ds.X[i][f], g: grad[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		leftG, leftN := 0.0, 0.0
		for j := 0; j < len(vals)-1; j++ {
			leftG += vals[j].g
			leftN++
			if vals[j].v == vals[j+1].v {
				continue
			}
			rightG := sumG - leftG
			rightN := total - leftN
			gain := leftG*leftG/leftN + rightG*rightG/rightN - baseScore
			if gain > bestGain {
				bestGain = gain
				feat = f
				thresh = (vals[j].v + vals[j+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// Name implements Model.
func (m *gbdt) Name() string { return m.name }

// NumClasses implements Model.
func (m *gbdt) NumClasses() int { return m.classes }

// Predict implements Model.
func (m *gbdt) Predict(x []float64) int { return argmax(m.Scores(x)) }

// PredictBatch implements Model.
func (m *gbdt) PredictBatch(xs [][]float64) []int { return predictBatchSerial(m, xs) }

// Scores implements Scorer: the boosted per-class scores.
func (m *gbdt) Scores(x []float64) []float64 {
	return scoresRow(m, m.classes, x)
}

// ScoresFlat implements FlatScorer.
func (m *gbdt) ScoresFlat(data []float64, rows, dim int, out []float64) {
	scoresFlat(m, m.name, m.dim, m.classes, data, rows, dim, out)
}

func (m *gbdt) scoresInto(x, out []float64) {
	clear(out)
	for _, round := range m.trees {
		for c, tree := range round {
			out[c] += m.lr * tree.eval(x)
		}
	}
}
