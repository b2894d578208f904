package models

import (
	"math"
	"math/rand"

	"clipper/internal/dataset"
)

// KernelMachine is an RBF-kernel classifier. Inference computes the RBF
// kernel between the query and every landmark (a sampled subset of the
// training set) and applies a linear classifier over those kernel features
// (the Nyström approximation to a kernel SVM).
//
// Its prediction cost is O(landmarks × dim) per query — orders of magnitude
// more than a linear model — reproducing the paper's observation (Figure 3c)
// that the kernel SVM's feasible batch size under a 20 ms SLO is ~241×
// smaller than the linear SVM's.
type KernelMachine struct {
	name      string
	landmarks [][]float64
	gamma     float64
	linear    *LinearModel // over kernel-feature space
	dim       int
}

// KernelConfig holds kernel-machine training hyperparameters.
type KernelConfig struct {
	// Landmarks is the number of training points kept as kernel centers.
	Landmarks int
	// Gamma is the RBF bandwidth: k(a,b) = exp(-gamma * ||a-b||^2).
	// Zero selects 1/dim.
	Gamma float64
	// Linear configures the classifier trained on kernel features.
	Linear LinearConfig
	// Seed drives landmark sampling.
	Seed int64
}

// DefaultKernelConfig returns hyperparameters suited to the synthetic
// benchmarks.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{Landmarks: 256, Linear: DefaultLinearConfig(), Seed: 1}
}

// TrainKernelMachine trains an RBF kernel machine on ds. This stands in for
// the paper's Scikit-Learn kernel SVM.
func TrainKernelMachine(name string, ds *dataset.Dataset, cfg KernelConfig) *KernelMachine {
	if cfg.Landmarks <= 0 {
		cfg.Landmarks = 256
	}
	if cfg.Landmarks > ds.Len() {
		cfg.Landmarks = ds.Len()
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = 1.0 / float64(ds.Dim)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(ds.Len())
	landmarks := make([][]float64, cfg.Landmarks)
	for i := range landmarks {
		landmarks[i] = ds.X[perm[i]]
	}
	km := &KernelMachine{
		name:      name,
		landmarks: landmarks,
		gamma:     gamma,
		dim:       ds.Dim,
	}
	// Map the training set into kernel-feature space, then train a linear
	// SVM there.
	feat := &dataset.Dataset{
		Name:       ds.Name + "/kernelfeat",
		Dim:        cfg.Landmarks,
		NumClasses: ds.NumClasses,
		X:          make([][]float64, ds.Len()),
		Y:          ds.Y,
	}
	for i, x := range ds.X {
		feat.X[i] = km.kernelFeatures(x)
	}
	km.linear = TrainLinearSVM(name+"/linear", feat, cfg.Linear)
	return km
}

func (m *KernelMachine) kernelFeatures(x []float64) []float64 {
	f := make([]float64, len(m.landmarks))
	for i, l := range m.landmarks {
		f[i] = math.Exp(-m.gamma * sqDist(x, l))
	}
	return f
}

// Name implements Model.
func (m *KernelMachine) Name() string { return m.name }

// NumClasses implements Model.
func (m *KernelMachine) NumClasses() int { return m.linear.NumClasses() }

// Predict implements Model.
func (m *KernelMachine) Predict(x []float64) int {
	return argmax(m.Scores(x))
}

// PredictBatch implements Model.
func (m *KernelMachine) PredictBatch(xs [][]float64) []int {
	return predictBatchSerial(m, xs)
}

// Scores implements Scorer.
func (m *KernelMachine) Scores(x []float64) []float64 {
	checkDim(m.name, x, m.dim)
	return m.linear.Scores(m.kernelFeatures(x))
}

// ScoresFlat implements FlatScorer. One kernel-feature buffer is reused
// across every row — kernelFeatures allocates a landmarks-wide slice per
// query on the serial path, which dominates small-batch garbage for this
// model family.
func (m *KernelMachine) ScoresFlat(data []float64, rows, dim int, out []float64) {
	checkFlat(m.name, rows, dim, m.dim, data)
	feat := make([]float64, len(m.landmarks))
	nc := m.linear.NumClasses()
	for r := 0; r < rows; r++ {
		x := data[r*dim : (r+1)*dim]
		for i, l := range m.landmarks {
			feat[i] = math.Exp(-m.gamma * sqDist(x, l))
		}
		s := out[r*nc : (r+1)*nc]
		for c, w := range m.linear.weights {
			s[c] = dot(w, feat) + m.linear.bias[c]
		}
	}
}
