package models

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"clipper/internal/dataset"
)

// Reference scorers: the per-row Scores bodies as PR 22 shipped them, kept
// here so the table- and kernel-based models are held to the old arithmetic
// with ==, not to themselves. This file uses nothing PR 23 added, so it
// also compiles and passes inside the PR 22 tree — that is how the
// references were checked to be the parent's code and not a paraphrase.

func bayesScoresRef(m *NaiveBayes, x []float64) []float64 {
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

func treeScoresRef(t *DecisionTree, x []float64) []float64 {
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

func forestScoresRef(f *RandomForest, x []float64) []float64 {
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

func gbdtScoresRef(m *GBDT, x []float64) []float64 {
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
func knnScoresRef(m *KNN, x []float64) []float64 {
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
	case *NaiveBayes:
		return bayesScoresRef(v, x)
	case *DecisionTree:
		return treeScoresRef(v, x)
	case *RandomForest:
		return forestScoresRef(v, x)
	case *GBDT:
		return gbdtScoresRef(v, x)
	case *KNN:
		return knnScoresRef(v, x)
	}
	t.Fatalf("no reference scorer for %T", m)
	return nil
}

// kernelZoo trains, for one seed, every model whose Scores PR 23 rewrote,
// plus the corners of each kernel: a NaiveBayes with an empty class (the
// logPrior = -Inf early-out), a tree and a forest with a zero-count leaf
// (sum == 0), and each model again after a persist.go round trip (the
// NaiveBayes table is derived on load, not read). The returned inputs are
// 64 held-out rows; tied distances exercise KNN's heap order.
func kernelZoo(t *testing.T, seed int64) ([]Model, [][]float64) {
	t.Helper()
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "zoo", N: 400, Dim: 20, NumClasses: 3, Separation: 3, Noise: 1.5, Seed: seed,
	})
	train, test := d.Split(0.8, seed)
	sparse := *train
	sparse.NumClasses++ // class 3 has no examples

	hollow := TrainDecisionTree("tree-hollow", train, TreeConfig{MaxDepth: 4, Seed: seed})
	hollow.root = &treeNode{
		feature: 0, threshold: test.X[0][0], // row 0 falls in the empty leaf
		left:  &treeNode{feature: -1, classCounts: make([]float64, train.NumClasses)},
		right: hollow.root,
	}
	forest := TrainRandomForest("rf-hollow", train, TreeConfig{Trees: 5, MaxDepth: 6, Seed: seed})
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
	}
	for _, m := range ms { // the range length is fixed before the appends
		ms = append(ms, roundTrip(t, m))
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
				got := m.(Scorer).Scores(x)
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
