package models

import (
	"math"
	"math/rand"

	"clipper/internal/dataset"
)

// kernelMachine is an RBF-kernel classifier. Inference computes the RBF
// kernel between the query and every landmark (a sampled subset of the
// training set) and applies a linear classifier over those kernel features
// (the Nyström approximation to a kernel SVM).
//
// Its prediction cost is O(landmarks × dim) per query — orders of magnitude
// more than a linear model — reproducing the paper's observation (Figure 3c)
// that the kernel SVM's feasible batch size under a 20 ms SLO is ~241×
// smaller than the linear SVM's.
type kernelMachine struct {
	name      string
	landmarks [][]float64
	gamma     float64
	linear    *linearModel // over kernel-feature space
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
func TrainKernelMachine(name string, ds *dataset.Dataset, cfg KernelConfig) Model {
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
	km := &kernelMachine{
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
	km.linear = TrainLinearSVM(name+"/linear", feat, cfg.Linear).(*linearModel)
	return km
}

func (m *kernelMachine) kernelFeatures(x []float64) []float64 {
	f := make([]float64, len(m.landmarks))
	m.featuresInto(x, f)
	return f
}

// featuresInto overwrites f with x's RBF kernel value at every landmark.
func (m *kernelMachine) featuresInto(x, f []float64) {
	for i, l := range m.landmarks {
		f[i] = math.Exp(-m.gamma * sqDist(x, l))
	}
}

// Name implements Model.
func (m *kernelMachine) Name() string { return m.name }

// NumClasses implements Model.
func (m *kernelMachine) NumClasses() int { return m.linear.NumClasses() }

// Predict implements Model.
func (m *kernelMachine) Predict(x []float64) int { return label(m, x) }

// ScoresFlat implements Model. One kernel-feature buffer is reused across
// every row, where kernelFeatures (training's path) allocates a
// landmarks-wide slice per row. A row's features and margins are calls of
// their own, for the reason scoresFlat gives.
func (m *kernelMachine) ScoresFlat(data []float64, rows, dim int, out []float64) {
	checkFlat(m.name, rows, dim, m.dim, data)
	feat := make([]float64, len(m.landmarks))
	nc := m.linear.NumClasses()
	for r := 0; r < rows; r++ {
		m.featuresInto(data[r*dim:(r+1)*dim], feat)
		m.linear.scoresInto(feat, out[r*nc:(r+1)*nc])
	}
}
