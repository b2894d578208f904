package models

import (
	"math"

	"clipper/internal/dataset"
)

// naiveBayes is a Gaussian naive Bayes classifier: per-class, per-feature
// means and variances with a class prior. It is cheap at inference time
// (O(dim × classes)) and typically less accurate than the discriminative
// models, giving the selection-layer experiments a genuinely weaker arm.
type naiveBayes struct {
	name     string
	mean     [][]float64 // [class][dim]
	variance [][]float64 // [class][dim]
	norm     [][]float64 // [class][dim]: 0.5*log(2π·variance), derived from variance
	logPrior []float64   // [class]
	dim      int
}

// newNaiveBayes builds the Gaussian normaliser table the variances
// determine, so scoring takes no logarithm and prediction never mutates the
// model.
func newNaiveBayes(name string, mean, variance [][]float64, logPrior []float64, dim int) *naiveBayes {
	norm := make([][]float64, len(variance))
	for c, vs := range variance {
		norm[c] = make([]float64, len(vs))
		for j, va := range vs {
			norm[c][j] = 0.5 * math.Log(2*math.Pi*va)
		}
	}
	return &naiveBayes{name: name, mean: mean, variance: variance, norm: norm, logPrior: logPrior, dim: dim}
}

// TrainNaiveBayes fits Gaussian naive Bayes to ds with variance smoothing.
func TrainNaiveBayes(name string, ds *dataset.Dataset) Model {
	nc := ds.NumClasses
	mean := make([][]float64, nc)
	variance := make([][]float64, nc)
	logPrior := make([]float64, nc)
	counts := make([]float64, nc)
	for c := 0; c < nc; c++ {
		mean[c] = make([]float64, ds.Dim)
		variance[c] = make([]float64, ds.Dim)
	}
	for i, x := range ds.X {
		c := ds.Y[i]
		counts[c]++
		axpy(1, x, mean[c])
	}
	for c := 0; c < nc; c++ {
		if counts[c] == 0 {
			logPrior[c] = math.Inf(-1)
			for j := range variance[c] {
				variance[c][j] = 1
			}
			continue
		}
		for j := range mean[c] {
			mean[c][j] /= counts[c]
		}
		logPrior[c] = math.Log(counts[c] / float64(ds.Len()))
	}
	for i, x := range ds.X {
		c := ds.Y[i]
		for j, v := range x {
			d := v - mean[c][j]
			variance[c][j] += d * d
		}
	}
	const smoothing = 1e-6
	for c := 0; c < nc; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range variance[c] {
			variance[c][j] = variance[c][j]/counts[c] + smoothing
		}
	}
	return newNaiveBayes(name, mean, variance, logPrior, ds.Dim)
}

// Name implements Model.
func (m *naiveBayes) Name() string { return m.name }

// NumClasses implements Model.
func (m *naiveBayes) NumClasses() int { return len(m.mean) }

// Predict implements Model.
func (m *naiveBayes) Predict(x []float64) int {
	return argmax(m.Scores(x))
}

// PredictBatch implements Model.
func (m *naiveBayes) PredictBatch(xs [][]float64) []int {
	return predictBatchSerial(m, xs)
}

// Scores implements Scorer: per-class log joint likelihood.
func (m *naiveBayes) Scores(x []float64) []float64 {
	return scoresRow(m, len(m.mean), x)
}

// ScoresFlat implements FlatScorer.
func (m *naiveBayes) ScoresFlat(data []float64, rows, dim int, out []float64) {
	scoresFlat(m, m.name, m.dim, len(m.mean), data, rows, dim, out)
}

func (m *naiveBayes) scoresInto(x, out []float64) {
	for c, mean := range m.mean {
		ll := m.logPrior[c]
		if !math.IsInf(ll, -1) {
			variance, norm := m.variance[c], m.norm[c]
			for j, v := range x {
				d := v - mean[j]
				ll -= 0.5*(d*d/variance[j]) + norm[j]
			}
		}
		out[c] = ll
	}
}
