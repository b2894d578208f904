// Package models implements, from scratch, every machine-learning model
// family the Clipper paper serves: linear SVMs (Pegasos), logistic
// regression (SGD), RBF-kernel machines, decision trees and random forests,
// k-nearest neighbors, Gaussian naive Bayes, multi-layer perceptrons, and a
// no-op model for overhead measurement. Every scoring model is a FlatScorer
// whose flat path equals Scores bit for bit, and anything that depends only
// on the parameters (NaiveBayes' normaliser table) is built once, at
// training or load, never while predicting.
//
// The paper serves models trained in Scikit-Learn, Spark MLlib, Caffe,
// TensorFlow and HTK; those frameworks are unavailable offline, so this
// package provides Go-native equivalents with genuinely different
// computational profiles and accuracies — the two properties Clipper's
// batching and selection layers actually exercise.
package models

import (
	"fmt"
	"math"
)

// Model renders class predictions for dense feature vectors. All
// implementations in this package are safe for concurrent use after
// training: prediction never mutates model state.
type Model interface {
	// Name identifies the model in reports and RPC registration.
	Name() string
	// NumClasses returns the number of classes the model discriminates.
	NumClasses() int
	// Predict returns the predicted class label for one input.
	Predict(x []float64) int
	// PredictBatch returns one predicted label per input. Batch
	// prediction is the unit of work in Clipper's model containers
	// (Listing 1 of the paper).
	PredictBatch(xs [][]float64) []int
}

// Scorer is implemented by models that can expose per-class scores
// (unnormalized or probabilistic). The ensemble selection policies use
// scores when available and fall back to votes otherwise.
type Scorer interface {
	// Scores returns one score per class for the input; higher is more
	// likely. len(Scores(x)) == NumClasses(), and the model's label is
	// their Argmax, so a caller holding the scores need not call Predict.
	Scores(x []float64) []float64
}

// FlatScorer is implemented by every scoring model in this package: batch
// scoring over a flat row-major tensor — the shape container.BatchView
// delivers after a zero-copy decode. Implementations score every row with
// per-batch (not per-row) scratch and must produce exactly the values
// Scores returns row by row; they exist so the serving hot path can skip
// both the [][]float64 materialization and the per-query score allocation.
type FlatScorer interface {
	Scorer
	// ScoresFlat fills out with one score per class per row, row-major:
	// row r of the rows×dim tensor data scores into
	// out[r*classes : (r+1)*classes]. len(data) must be ≥ rows*dim and
	// len(out) ≥ rows*NumClasses(); dim must match the model's input
	// dimensionality (implementations panic otherwise, as Predict does).
	ScoresFlat(data []float64, rows, dim int, out []float64)
}

// Argmax returns the index of the largest value in v (0 when empty) — the
// label rule every Scorer shares, exported for consumers turning scores
// into labels.
func Argmax(v []float64) int { return argmax(v) }

// rowScorer is the one-row kernel of the models that need no per-batch
// scratch: scoresInto overwrites out (length NumClasses) with x's scores,
// allocating nothing, from tables fixed when the model was built.
type rowScorer interface{ scoresInto(x, out []float64) }

// scoresFlat is ScoresFlat over a rowScorer: the one shared row loop.
func scoresFlat(s rowScorer, name string, want, classes int, data []float64, rows, dim int, out []float64) {
	checkFlat(name, rows, dim, want, data)
	for r := 0; r < rows; r++ {
		s.scoresInto(data[r*dim:(r+1)*dim], out[r*classes:(r+1)*classes])
	}
}

// scoresRow is Scores over a model's flat kernel: one allocation, one row.
func scoresRow(s FlatScorer, classes int, x []float64) []float64 {
	out := make([]float64, classes)
	s.ScoresFlat(x, 1, len(x), out)
	return out
}

// checkFlat validates a flat tensor's shape against the model's expected
// input dimensionality, mirroring checkDim's panic behavior.
func checkFlat(name string, rows, dim, want int, data []float64) {
	if dim != want {
		panic(fmt.Sprintf("models: %s: input dim %d, want %d", name, dim, want))
	}
	if len(data) < rows*dim {
		panic(fmt.Sprintf("models: %s: flat tensor has %d values, want %d×%d", name, len(data), rows, dim))
	}
}

// Accuracy returns the fraction of examples in (xs, ys) that m predicts
// correctly.
func Accuracy(m Model, xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	pred := m.PredictBatch(xs)
	correct := 0
	for i, p := range pred {
		if p == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// ErrorRate returns 1 - Accuracy.
func ErrorRate(m Model, xs [][]float64, ys []int) float64 {
	return 1 - Accuracy(m, xs, ys)
}

// TopKAccuracy returns the fraction of examples whose true label is among
// the model's k highest-scoring classes. The model must implement Scorer;
// otherwise TopKAccuracy falls back to top-1 accuracy.
func TopKAccuracy(m Model, xs [][]float64, ys []int, k int) float64 {
	s, ok := m.(Scorer)
	if !ok || k <= 1 {
		return Accuracy(m, xs, ys)
	}
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		scores := s.Scores(x)
		if inTopK(scores, ys[i], k) {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

func inTopK(scores []float64, label, k int) bool {
	if label < 0 || label >= len(scores) {
		return false
	}
	target := scores[label]
	higher := 0
	for c, v := range scores {
		if c == label {
			continue
		}
		if v > target {
			higher++
			if higher >= k {
				return false
			}
		}
	}
	return true
}

// predictBatchSerial implements PredictBatch in terms of Predict. Model
// implementations use it unless they have a cheaper batch path.
func predictBatchSerial(m Model, xs [][]float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

func checkDim(name string, x []float64, want int) {
	if len(x) != want {
		panic(fmt.Sprintf("models: %s: input dim %d, want %d", name, len(x), want))
	}
}

// --- small linear-algebra helpers shared by the model implementations ---

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// axpy computes y += alpha * x in place.
func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func softmaxInPlace(v []float64) {
	max := math.Inf(-1)
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for i, x := range v {
		v[i] = math.Exp(x - max)
		sum += v[i]
	}
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
