// Package models implements, from scratch, every machine-learning model
// family the Clipper paper serves: linear SVMs (Pegasos), logistic
// regression (SGD), RBF-kernel machines, decision trees and random forests,
// k-nearest neighbors, Gaussian naive Bayes, multi-layer perceptrons, and a
// no-op model for overhead measurement. A model is one batch call,
// ScoresFlat, over the flat row-major tensor a container receives (the
// paper's predict_batch, §4.4 Listing 1); Scores and a model's label are
// its one-row case. Anything that depends only on the parameters (naive
// Bayes' normaliser table) is built once, at training or load, never while
// predicting.
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

// Model scores dense feature vectors, a batch at a time. All
// implementations in this package are safe for concurrent use after
// training: prediction never mutates model state.
type Model interface {
	// Name identifies the model in reports and RPC registration.
	Name() string
	// NumClasses returns the number of classes the model discriminates.
	NumClasses() int
	// ScoresFlat fills out with one score per class per row, row-major:
	// row r of the rows×dim tensor data scores into
	// out[r*classes : (r+1)*classes]; higher is more likely. len(data)
	// must be ≥ rows*dim and len(out) ≥ rows*NumClasses(); dim must match
	// the model's input dimensionality (implementations panic otherwise).
	// Scratch is per batch, never per row, and out is overwritten, not
	// accumulated into.
	ScoresFlat(data []float64, rows, dim int, out []float64)
	// Predict returns the predicted class label for one input: the Argmax
	// of its Scores.
	Predict(x []float64) int
}

// Scores returns x's scores, one per class: one row of m.ScoresFlat.
func Scores(m Model, x []float64) []float64 {
	out := make([]float64, m.NumClasses())
	m.ScoresFlat(x, 1, len(x), out)
	return out
}

// label is every model's Predict: the Argmax of x's scores.
func label(m Model, x []float64) int { return argmax(Scores(m, x)) }

// Argmax returns the index of the largest value in v (0 when empty) — the
// label rule every model shares, exported for consumers turning scores
// into labels.
func Argmax(v []float64) int { return argmax(v) }

// rowScorer is the one-row kernel of the models that need no per-batch
// scratch: scoresInto overwrites out (length NumClasses) with x's scores,
// allocating nothing, from tables fixed when the model was built.
type rowScorer interface{ scoresInto(x, out []float64) }

// scoresFlat is ScoresFlat over a rowScorer: the one shared row loop. The
// row kernel stays a call of its own, not inlined into the loop: inlined,
// the row loop's live values spill the kernel's loop index to the stack,
// which made the linear margins ≈ 1.7× slower (go1.24, amd64).
func scoresFlat(s rowScorer, name string, want, classes int, data []float64, rows, dim int, out []float64) {
	checkFlat(name, rows, dim, want, data)
	for r := 0; r < rows; r++ {
		s.scoresInto(data[r*dim:(r+1)*dim], out[r*classes:(r+1)*classes])
	}
}

// checkFlat validates a flat tensor's shape against the model's expected
// input dimensionality.
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
	correct := 0
	for i, x := range xs {
		if label(m, x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// ErrorRate returns 1 - Accuracy.
func ErrorRate(m Model, xs [][]float64, ys []int) float64 {
	return 1 - Accuracy(m, xs, ys)
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
