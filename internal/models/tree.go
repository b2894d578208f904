package models

import (
	"math"
	"math/rand"
	"slices"

	"clipper/internal/dataset"
)

// treeNode is one node of a CART decision tree. Leaves have feature == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// classCounts at a leaf holds the training-class distribution, used
	// both for prediction (argmax) and for forest score averaging.
	classCounts []float64
}

func (n *treeNode) isLeaf() bool { return n.feature < 0 }

func (n *treeNode) leafFor(x []float64) *treeNode {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// addShares adds the class distribution of x's leaf — its counts over
// their sum, nothing for an empty leaf — to out.
func (n *treeNode) addShares(x, out []float64) {
	counts := n.leafFor(x).classCounts
	sum := 0.0
	for _, c := range counts {
		sum += c
	}
	if sum == 0 {
		return
	}
	for i, c := range counts {
		out[i] += c / sum
	}
}

// decisionTree is a single CART classification tree trained with the Gini
// impurity criterion.
type decisionTree struct {
	name       string
	root       *treeNode
	numClasses int
	dim        int
}

// TreeConfig holds decision-tree / random-forest hyperparameters.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 selects 12.
	MaxDepth int
	// MinLeaf is the minimum number of examples in a leaf; 0 selects 2.
	MinLeaf int
	// FeatureFraction is the fraction of features considered at each
	// split; 0 selects sqrt(dim)/dim (the random-forest default). Set to
	// 1 for classic single-tree CART.
	FeatureFraction float64
	// Trees is the forest size (forest trainer only); 0 selects 10.
	Trees int
	// SampleFraction is the bootstrap sample fraction per tree (forest
	// trainer only); 0 selects 1.0.
	SampleFraction float64
	// Seed drives feature and bootstrap sampling.
	Seed int64
}

// DefaultTreeConfig returns hyperparameters suited to the synthetic
// benchmarks.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 12, MinLeaf: 2, Trees: 10, SampleFraction: 1.0, Seed: 1}
}

// TrainDecisionTree trains one CART tree on ds. This stands in for a
// Scikit-Learn decision tree.
func TrainDecisionTree(name string, ds *dataset.Dataset, cfg TreeConfig) Model {
	cfg = fillTreeDefaults(cfg, ds.Dim)
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := identity(ds.Len())
	return &decisionTree{
		name:       name,
		root:       growTree(ds, idx, cfg, rng, 0),
		numClasses: ds.NumClasses,
		dim:        ds.Dim,
	}
}

// Name implements Model.
func (t *decisionTree) Name() string { return t.name }

// NumClasses implements Model.
func (t *decisionTree) NumClasses() int { return t.numClasses }

// Predict implements Model.
func (t *decisionTree) Predict(x []float64) int { return label(t, x) }

// ScoresFlat implements Model: normalized leaf class counts.
func (t *decisionTree) ScoresFlat(data []float64, rows, dim int, out []float64) {
	scoresFlat(t, t.name, t.dim, t.numClasses, data, rows, dim, out)
}

func (t *decisionTree) scoresInto(x, out []float64) {
	clear(out)
	t.root.addShares(x, out)
}

// randomForest is a bagged ensemble of CART trees with per-split feature
// subsampling. This stands in for the paper's Scikit-Learn random forest.
type randomForest struct {
	name       string
	trees      []*decisionTree
	numClasses int
	dim        int
}

// TrainRandomForest trains cfg.Trees bootstrap-sampled trees on ds.
func TrainRandomForest(name string, ds *dataset.Dataset, cfg TreeConfig) Model {
	cfg = fillTreeDefaults(cfg, ds.Dim)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rf := &randomForest{name: name, numClasses: ds.NumClasses, dim: ds.Dim}
	n := ds.Len()
	sample := int(cfg.SampleFraction * float64(n))
	if sample <= 0 {
		sample = n
	}
	for k := 0; k < cfg.Trees; k++ {
		idx := make([]int, sample)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tree := &decisionTree{
			name:       name,
			root:       growTree(ds, idx, cfg, rng, 0),
			numClasses: ds.NumClasses,
			dim:        ds.Dim,
		}
		rf.trees = append(rf.trees, tree)
	}
	return rf
}

// Name implements Model.
func (f *randomForest) Name() string { return f.name }

// NumClasses implements Model.
func (f *randomForest) NumClasses() int { return f.numClasses }

// Predict implements Model.
func (f *randomForest) Predict(x []float64) int { return label(f, x) }

// ScoresFlat implements Model: mean of per-tree leaf distributions.
func (f *randomForest) ScoresFlat(data []float64, rows, dim int, out []float64) {
	scoresFlat(f, f.name, f.dim, f.numClasses, data, rows, dim, out)
}

// scoresInto accumulates straight off the leaf counts, in tree order, so
// the sum rounds exactly as adding each tree's scores would.
func (f *randomForest) scoresInto(x, out []float64) {
	clear(out)
	for _, t := range f.trees {
		t.root.addShares(x, out)
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
}

func fillTreeDefaults(cfg TreeConfig, dim int) TreeConfig {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	if cfg.FeatureFraction <= 0 {
		cfg.FeatureFraction = math.Sqrt(float64(dim)) / float64(dim)
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 10
	}
	if cfg.SampleFraction <= 0 {
		cfg.SampleFraction = 1.0
	}
	return cfg
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func growTree(ds *dataset.Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, depth int) *treeNode {
	counts := classCounts(ds, idx)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || pure(counts) {
		return &treeNode{feature: -1, classCounts: counts}
	}
	feat, thresh, ok := bestSplit(ds, idx, cfg, rng)
	if !ok {
		return &treeNode{feature: -1, classCounts: counts}
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
		return &treeNode{feature: -1, classCounts: counts}
	}
	return &treeNode{
		feature:     feat,
		threshold:   thresh,
		left:        growTree(ds, left, cfg, rng, depth+1),
		right:       growTree(ds, right, cfg, rng, depth+1),
		classCounts: counts,
	}
}

func classCounts(ds *dataset.Dataset, idx []int) []float64 {
	counts := make([]float64, ds.NumClasses)
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	return counts
}

func pure(counts []float64) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func gini(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

// bestSplit scans a random subset of features; for each it sorts candidate
// values and evaluates Gini gain with running class counts.
func bestSplit(ds *dataset.Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) (feat int, thresh float64, ok bool) {
	nFeat := int(cfg.FeatureFraction * float64(ds.Dim))
	if nFeat < 1 {
		nFeat = 1
	}
	if nFeat > ds.Dim {
		nFeat = ds.Dim
	}
	features := rng.Perm(ds.Dim)[:nFeat]

	total := float64(len(idx))
	parentCounts := classCounts(ds, idx)
	parentGini := gini(parentCounts, total)
	bestGain := 1e-9
	ok = false

	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, len(idx))
	leftCounts := make([]float64, ds.NumClasses)

	for _, f := range features {
		for j, i := range idx {
			vals[j] = fv{v: ds.X[i][f], y: ds.Y[i]}
		}
		slices.SortFunc(vals, func(a, b fv) int { return cmpValue(a.v, b.v) })
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		rightCounts := append([]float64(nil), parentCounts...)
		for j := 0; j < len(vals)-1; j++ {
			leftCounts[vals[j].y]++
			rightCounts[vals[j].y]--
			if vals[j].v == vals[j+1].v {
				continue
			}
			nl := float64(j + 1)
			nr := total - nl
			gain := parentGini - (nl/total)*gini(leftCounts, nl) - (nr/total)*gini(rightCounts, nr)
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

// cmpValue orders feature values for the split search's sort. It is < 0
// exactly when a < b, so slices.SortFunc makes the moves a sort with the
// less function a < b makes, and the scan sees the same order.
func cmpValue(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
