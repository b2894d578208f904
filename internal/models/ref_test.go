package models

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"clipper/internal/dataset"
)

// Reference scorers: the per-row Scores bodies every model family had
// before ScoresFlat became its only scoring call, kept here so each model
// is held to the old arithmetic with ==, not to itself. The bodies were
// checked against the methods they replace, inside the tree that still had
// them, to be that code and not a paraphrase.

// linearScoresRef is one margin per class.
func linearScoresRef(m *linearModel, x []float64) []float64 {
	s := make([]float64, len(m.weights))
	for c, w := range m.weights {
		s[c] = dot(w, x) + m.bias[c]
	}
	return s
}

// kernelScoresRef is the linear margins over the landmark features.
func kernelScoresRef(m *kernelMachine, x []float64) []float64 {
	f := make([]float64, len(m.landmarks))
	for i, l := range m.landmarks {
		f[i] = math.Exp(-m.gamma * sqDist(x, l))
	}
	return linearScoresRef(m.linear, f)
}

// mlpScoresRef is the output logits of mlpForwardRef.
func mlpScoresRef(m *mlp, x []float64) []float64 {
	acts, _ := mlpForwardRef(m, x)
	return acts[len(acts)-1]
}

// mlpForwardRef is the per-row forward pass training used before it
// shared ScoresFlat's layer kernel: activations per layer (acts[0] = input,
// acts[L] = logits) and pre-activations zs per hidden layer.
func mlpForwardRef(m *mlp, x []float64) (acts [][]float64, zs [][]float64) {
	nL := len(m.weights)
	acts = make([][]float64, nL+1)
	zs = make([][]float64, nL)
	acts[0] = x
	for l := 0; l < nL; l++ {
		out := make([]float64, len(m.weights[l]))
		for o, w := range m.weights[l] {
			out[o] = dot(w, acts[l]) + m.biases[l][o]
		}
		zs[l] = out
		if l == nL-1 {
			acts[l+1] = out // logits, no activation
		} else {
			relu := make([]float64, len(out))
			for j, v := range out {
				if v > 0 {
					relu[j] = v
				}
			}
			acts[l+1] = relu
		}
	}
	return acts, zs
}

func bayesScoresRef(m *naiveBayes, x []float64) []float64 {
	out := make([]float64, len(m.mean))
	for c := range m.mean {
		ll := m.logPrior[c]
		if math.IsInf(ll, -1) {
			out[c] = ll
			continue
		}
		for j, v := range x {
			d := v - m.mean[c][j]
			va := m.variance[c][j]
			ll -= 0.5*(d*d/va) + 0.5*math.Log(2*math.Pi*va)
		}
		out[c] = ll
	}
	return out
}

func treeScoresRef(t *decisionTree, x []float64) []float64 {
	counts := t.root.leafFor(x).classCounts
	out := make([]float64, len(counts))
	sum := 0.0
	for _, c := range counts {
		sum += c
	}
	if sum == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / sum
	}
	return out
}

func forestScoresRef(f *randomForest, x []float64) []float64 {
	out := make([]float64, f.numClasses)
	for _, t := range f.trees {
		for i, v := range treeScoresRef(t, x) {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}

func gbdtScoresRef(m *gbdt, x []float64) []float64 {
	out := make([]float64, m.classes)
	for _, round := range m.trees {
		for c, tree := range round {
			out[c] += m.lr * tree.eval(x)
		}
	}
	return out
}

type refHeap []distEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d > h[j].d } // max-heap
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// knnScoresRef keeps the k nearest in a container/heap max-heap: the
// compare/swap order KNN's inlined heap must reproduce for ties to agree.
func knnScoresRef(m *knn, x []float64) []float64 {
	h := make(refHeap, 0, m.k)
	for i, xi := range m.xs {
		d := sqDist(x, xi)
		if len(h) < m.k {
			heap.Push(&h, distEntry{d: d, y: m.ys[i]})
		} else if d < h[0].d {
			h[0] = distEntry{d: d, y: m.ys[i]}
			heap.Fix(&h, 0)
		}
	}
	out := make([]float64, m.numClasses)
	for _, e := range h {
		out[e.y]++
	}
	for i := range out {
		out[i] /= float64(len(h))
	}
	return out
}

func scoresRef(t *testing.T, m Model, x []float64) []float64 {
	t.Helper()
	switch v := m.(type) {
	case *naiveBayes:
		return bayesScoresRef(v, x)
	case *decisionTree:
		return treeScoresRef(v, x)
	case *randomForest:
		return forestScoresRef(v, x)
	case *gbdt:
		return gbdtScoresRef(v, x)
	case *knn:
		return knnScoresRef(v, x)
	case *linearModel:
		return linearScoresRef(v, x)
	case *kernelMachine:
		return kernelScoresRef(v, x)
	case *mlp:
		return mlpScoresRef(v, x)
	}
	t.Fatalf("no reference scorer for %T", m)
	return nil
}

// kernelZoo trains, for one seed, one model of every family, plus the
// corners of the row kernels: a NaiveBayes with an empty class (the
// logPrior = -Inf early-out), a tree and a forest with a zero-count leaf
// (sum == 0). The returned inputs are 64 held-out rows; tied distances
// exercise KNN's heap order.
func kernelZoo(t *testing.T, seed int64) ([]Model, [][]float64) {
	t.Helper()
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "zoo", N: 400, Dim: 20, NumClasses: 3, Separation: 3, Noise: 1.5, Seed: seed,
	})
	train, test := d.Split(0.8, seed)
	sparse := *train
	sparse.NumClasses++ // class 3 has no examples

	hollow := TrainDecisionTree("tree-hollow", train, TreeConfig{MaxDepth: 4, Seed: seed}).(*decisionTree)
	hollow.root = &treeNode{
		feature: 0, threshold: test.X[0][0], // row 0 falls in the empty leaf
		left:  &treeNode{feature: -1, classCounts: make([]float64, train.NumClasses)},
		right: hollow.root,
	}
	forest := TrainRandomForest("rf-hollow", train, TreeConfig{Trees: 5, MaxDepth: 6, Seed: seed}).(*randomForest)
	forest.trees = append(forest.trees, hollow)

	dup := *train
	dup.X = append(append([][]float64(nil), train.X...), train.X[:40]...)
	dup.Y = append(append([]int(nil), train.Y...), train.Y[:40]...)

	ms := []Model{
		TrainNaiveBayes("nb", train),
		TrainNaiveBayes("nb-sparse", &sparse),
		TrainDecisionTree("tree", train, TreeConfig{MaxDepth: 6, MinLeaf: 4, Seed: seed}),
		hollow,
		TrainRandomForest("rf", train, DefaultTreeConfig()),
		forest,
		TrainGBDT("gbdt", train, GBDTConfig{Rounds: 6, Seed: seed}),
		TrainKNN("knn", &dup, 4),
		TrainLinearSVM("svm", train, DefaultLinearConfig()),
		TrainLogisticRegression("logreg", train, DefaultLinearConfig()),
		TrainKernelMachine("ksvm", train, KernelConfig{Landmarks: 64, Linear: DefaultLinearConfig(), Seed: seed}),
		TrainMLP("mlp", train, MLPConfig{Hidden: []int{16, 8}, Epochs: 2, Seed: seed}),
	}
	return ms, test.X[:64]
}

func TestScoresMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ms, xs := kernelZoo(t, seed)
		emptyClass, emptyLeaf := false, false
		for i, m := range ms {
			name := fmt.Sprintf("seed %d model %d (%s)", seed, i, m.Name())
			for r, x := range xs {
				want := scoresRef(t, m, x)
				got := Scores(m, x)
				if len(got) != len(want) {
					t.Fatalf("%s: %d scores, reference has %d", name, len(got), len(want))
				}
				sum := 0.0
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("%s row %d class %d: Scores %v, reference %v", name, r, c, got[c], want[c])
					}
					sum += want[c]
				}
				emptyClass = emptyClass || math.IsInf(want[len(want)-1], -1)
				emptyLeaf = emptyLeaf || (m.Name() == "tree-hollow" && sum == 0)
			}
		}
		if !emptyClass || !emptyLeaf {
			t.Fatalf("seed %d: corner not reached (empty class %v, zero-count leaf %v)", seed, emptyClass, emptyLeaf)
		}
	}
}
