package models

import (
	"math"
	"math/rand"

	"clipper/internal/dataset"
)

// linearModel is a multiclass linear classifier: one weight vector and bias
// per class, predicting argmax_c (w_c · x + b_c). Both the linear SVM
// (Pegasos, hinge loss) and logistic regression (softmax cross-entropy)
// trainers produce this type; they differ only in training objective, and
// hence accuracy, exactly as the paper's Scikit-Learn and Spark linear
// models do.
type linearModel struct {
	name    string
	weights [][]float64 // [class][dim]
	bias    []float64   // [class]
	dim     int
}

// Name implements Model.
func (m *linearModel) Name() string { return m.name }

// NumClasses implements Model.
func (m *linearModel) NumClasses() int { return len(m.weights) }

// Dim returns the expected input dimensionality.
func (m *linearModel) Dim() int { return m.dim }

// Predict implements Model.
func (m *linearModel) Predict(x []float64) int {
	return argmax(m.Scores(x))
}

// PredictBatch implements Model.
func (m *linearModel) PredictBatch(xs [][]float64) []int {
	return predictBatchSerial(m, xs)
}

// Scores implements Scorer: one margin per class.
func (m *linearModel) Scores(x []float64) []float64 {
	checkDim(m.name, x, m.dim)
	s := make([]float64, len(m.weights))
	for c, w := range m.weights {
		s[c] = dot(w, x) + m.bias[c]
	}
	return s
}

// ScoresFlat implements FlatScorer: per-class margins for every row of a
// flat row-major tensor, with zero per-row allocations.
func (m *linearModel) ScoresFlat(data []float64, rows, dim int, out []float64) {
	checkFlat(m.name, rows, dim, m.dim, data)
	nc := len(m.weights)
	for r := 0; r < rows; r++ {
		x := data[r*dim : (r+1)*dim]
		s := out[r*nc : (r+1)*nc]
		for c, w := range m.weights {
			s[c] = dot(w, x) + m.bias[c]
		}
	}
}

// LinearConfig holds training hyperparameters shared by the linear trainers.
type LinearConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// LearningRate is the initial SGD step size (logistic regression) or
	// ignored by Pegasos (which uses 1/(lambda*t)).
	LearningRate float64
	// Lambda is the L2 regularization strength.
	Lambda float64
	// Seed drives example shuffling.
	Seed int64
}

// DefaultLinearConfig returns hyperparameters that train well on the
// package's synthetic datasets.
func DefaultLinearConfig() LinearConfig {
	return LinearConfig{Epochs: 5, LearningRate: 0.05, Lambda: 1e-4, Seed: 1}
}

// TrainLinearSVM trains a one-vs-rest multiclass linear SVM with the Pegasos
// stochastic sub-gradient algorithm (Shalev-Shwartz et al.). This stands in
// for the paper's Scikit-Learn and PySpark linear SVMs.
func TrainLinearSVM(name string, ds *dataset.Dataset, cfg LinearConfig) Model {
	m := newLinear(name, ds)
	rng := rand.New(rand.NewSource(cfg.Seed))
	lambda := cfg.Lambda
	if lambda <= 0 {
		lambda = 1e-4
	}
	radius := 1 / math.Sqrt(lambda) // Pegasos feasible-ball radius
	// Pegasos' convergence constants scale with the squared data radius;
	// normalize the step size by the mean squared feature norm so one
	// Lambda works across input dimensionalities (same normalization as
	// the logistic trainer).
	normScale := stepNormalizer(ds)
	t := 1
	for e := 0; e < cfg.Epochs; e++ {
		for _, i := range rng.Perm(ds.Len()) {
			x, y := ds.X[i], ds.Y[i]
			// Step size with the standard t0 offset: eta starts near
			// normScale instead of the destabilizing 1/lambda.
			eta := normScale / (lambda*float64(t) + 1)
			t++
			for c := range m.weights {
				target := -1.0
				if c == y {
					target = 1.0
				}
				margin := target * (dot(m.weights[c], x) + m.bias[c])
				// L2 shrink then (sub)gradient step on hinge loss.
				scale := 1 - eta*lambda
				if scale < 0 {
					scale = 0
				}
				for j := range m.weights[c] {
					m.weights[c][j] *= scale
				}
				if margin < 1 {
					axpy(eta*target, x, m.weights[c])
					m.bias[c] += eta * target
				}
				// Pegasos projection onto the ball of radius
				// 1/sqrt(lambda); without it the enormous early
				// steps (eta = 1/(lambda t)) destabilize training
				// on high-dimensional inputs.
				norm := math.Sqrt(dot(m.weights[c], m.weights[c]))
				if norm > radius {
					shrink := radius / norm
					for j := range m.weights[c] {
						m.weights[c][j] *= shrink
					}
					m.bias[c] *= shrink
				}
			}
		}
	}
	return m
}

// TrainLogisticRegression trains multinomial logistic regression with SGD on
// the softmax cross-entropy objective. This stands in for the paper's
// Scikit-Learn logistic regression.
func TrainLogisticRegression(name string, ds *dataset.Dataset, cfg LinearConfig) Model {
	m := newLinear(name, ds)
	rng := rand.New(rand.NewSource(cfg.Seed))
	lr := cfg.LearningRate
	if lr <= 0 {
		lr = 0.05
	}
	// Scale the step by the data's mean squared feature norm (the local
	// curvature bound of the logistic loss grows with ||x||^2), so one
	// LearningRate works across input dimensionalities.
	normScale := stepNormalizer(ds)
	for e := 0; e < cfg.Epochs; e++ {
		eta := lr * normScale / (1 + 0.5*float64(e))
		for _, i := range rng.Perm(ds.Len()) {
			x, y := ds.X[i], ds.Y[i]
			p := m.Scores(x)
			softmaxInPlace(p)
			for c := range m.weights {
				grad := p[c]
				if c == y {
					grad -= 1
				}
				if grad == 0 {
					continue
				}
				axpy(-eta*grad, x, m.weights[c])
				m.bias[c] -= eta * grad
				if cfg.Lambda > 0 {
					scale := 1 - eta*cfg.Lambda
					for j := range m.weights[c] {
						m.weights[c][j] *= scale
					}
				}
			}
		}
	}
	return m
}

// stepNormalizer returns the SGD step scaling 1 for low-norm data and
// 50/mean(||x||^2) for high-norm data, estimated from a sample.
func stepNormalizer(ds *dataset.Dataset) float64 {
	meanSq := 0.0
	probe := ds.Len()
	if probe > 256 {
		probe = 256
	}
	if probe == 0 {
		return 1
	}
	for i := 0; i < probe; i++ {
		meanSq += dot(ds.X[i], ds.X[i])
	}
	meanSq /= float64(probe)
	if meanSq > 50 {
		return 50 / meanSq
	}
	return 1
}

func newLinear(name string, ds *dataset.Dataset) *linearModel {
	m := &linearModel{
		name:    name,
		weights: make([][]float64, ds.NumClasses),
		bias:    make([]float64, ds.NumClasses),
		dim:     ds.Dim,
	}
	for c := range m.weights {
		m.weights[c] = make([]float64, ds.Dim)
	}
	return m
}
