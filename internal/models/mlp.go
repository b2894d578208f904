package models

import (
	"math"
	"math/rand"

	"clipper/internal/dataset"
)

// mlp is a fully connected neural network with ReLU hidden activations and
// a softmax output, trained with mini-batch SGD on cross-entropy. The
// "deep" models in the paper's Table 2 (VGG, GoogLeNet, ResNet, CaffeNet,
// Inception) are represented by MLPs of varying width/depth wrapped in
// framework latency profiles (internal/frameworks); what Clipper's layers
// observe — differing accuracies and differing compute costs — is
// preserved.
type mlp struct {
	name    string
	weights [][][]float64 // [layer][out][in]
	biases  [][]float64   // [layer][out]
	dim     int
	classes int
}

// MLPConfig holds MLP training hyperparameters.
type MLPConfig struct {
	// Hidden lists the hidden-layer widths, e.g. {128, 64}.
	Hidden []int
	// Epochs is the number of passes over the training set; 0 selects 10.
	Epochs int
	// LearningRate is the SGD step size; 0 selects 0.01.
	LearningRate float64
	// BatchSize is the SGD mini-batch size; 0 selects 32.
	BatchSize int
	// Seed drives weight init and shuffling.
	Seed int64
}

// DefaultMLPConfig returns hyperparameters suited to the synthetic
// benchmarks.
func DefaultMLPConfig() MLPConfig {
	return MLPConfig{Hidden: []int{64}, Epochs: 10, LearningRate: 0.01, BatchSize: 32, Seed: 1}
}

// TrainMLP trains a multi-layer perceptron on ds.
func TrainMLP(name string, ds *dataset.Dataset, cfg MLPConfig) Model {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sizes := append([]int{ds.Dim}, cfg.Hidden...)
	sizes = append(sizes, ds.NumClasses)
	m := newMLP(name, sizes)
	for l, w := range m.weights {
		scale := math.Sqrt(2.0 / float64(sizes[l])) // He init for ReLU
		for _, row := range w {
			for i := range row {
				row[i] = rng.NormFloat64() * scale
			}
		}
	}
	// SGD's scratch, allocated once: the gradients are an mlp of m's shape,
	// acts[l+1] holds layer l's outputs (acts[0] is the sample) and
	// deltas[l] hidden layer l's delta.
	grad, deltas := newMLP(name, sizes), zeros(sizes[1:len(sizes)-1])
	acts := append([][]float64{nil}, zeros(sizes[1:])...)

	n := ds.Len()
	for e := 0; e < cfg.Epochs; e++ {
		eta := cfg.LearningRate / (1 + 0.3*float64(e))
		perm := rng.Perm(n)
		for start := 0; start < n; start += cfg.BatchSize {
			m.sgdStep(ds, perm[start:min(start+cfg.BatchSize, n)], eta, grad, acts, deltas)
		}
	}
	return m
}

// newMLP returns an mlp with the given layer widths (input first, classes
// last) and every parameter zero.
func newMLP(name string, sizes []int) *mlp {
	m := &mlp{name: name, dim: sizes[0], classes: sizes[len(sizes)-1], biases: zeros(sizes[1:])}
	for l := 1; l < len(sizes); l++ {
		w := make([][]float64, sizes[l])
		for o := range w {
			w[o] = make([]float64, sizes[l-1])
		}
		m.weights = append(m.weights, w)
	}
	return m
}

// zeros returns one zeroed vector of each length.
func zeros(lens []int) [][]float64 {
	out := make([][]float64, len(lens))
	for i, n := range lens {
		out[i] = make([]float64, n)
	}
	return out
}

// layer is the one forward kernel, which ScoresFlat and training share:
// out[o] = w[o]·in + b[o], through a ReLU on a hidden layer; the last layer
// gives raw logits.
func (m *mlp) layer(l int, in, out []float64) {
	hidden := l < len(m.weights)-1
	for o, w := range m.weights[l] {
		z := dot(w, in) + m.biases[l][o]
		if hidden && z < 0 {
			z = 0
		}
		out[o] = z
	}
}

// sgdStep accumulates one mini-batch's gradients into grad, which it clears
// first, and applies them. acts and deltas are TrainMLP's scratch.
func (m *mlp) sgdStep(ds *dataset.Dataset, idx []int, eta float64, grad *mlp, acts, deltas [][]float64) {
	for l := range grad.weights {
		for _, row := range grad.weights[l] {
			clear(row)
		}
		clear(grad.biases[l])
	}
	nL := len(m.weights)
	for _, i := range idx {
		acts[0] = ds.X[i]
		for l := range m.weights {
			m.layer(l, acts[l], acts[l+1])
		}
		// Output delta: softmax cross-entropy gradient.
		delta := acts[nL]
		softmaxInPlace(delta)
		delta[ds.Y[i]] -= 1
		for l := nL - 1; l >= 0; l-- {
			in := acts[l]
			for o := range m.weights[l] {
				if delta[o] == 0 {
					continue
				}
				axpy(delta[o], in, grad.weights[l][o])
				grad.biases[l][o] += delta[o]
			}
			if l == 0 {
				break
			}
			// Back-propagate through weights then the ReLU at layer l-1,
			// whose gradient is 0 where its output is (z <= 0).
			prev := deltas[l-1]
			clear(prev)
			for o, w := range m.weights[l] {
				if delta[o] == 0 {
					continue
				}
				axpy(delta[o], w, prev)
			}
			for j, a := range in {
				if a == 0 {
					prev[j] = 0
				}
			}
			delta = prev
		}
	}

	scale := eta / float64(len(idx))
	for l := range m.weights {
		for o := range m.weights[l] {
			axpy(-scale, grad.weights[l][o], m.weights[l][o])
			m.biases[l][o] -= scale * grad.biases[l][o]
		}
	}
}

// Name implements Model.
func (m *mlp) Name() string { return m.name }

// NumClasses implements Model.
func (m *mlp) NumClasses() int { return m.classes }

// Predict implements Model.
func (m *mlp) Predict(x []float64) int { return label(m, x) }

// ScoresFlat implements Model: output logits for every row of a flat
// row-major tensor, through training's layer kernel. Two ping-pong buffers
// hold the hidden activations, so a batch costs two scratch allocations
// whatever its rows and depth.
func (m *mlp) ScoresFlat(data []float64, rows, dim int, out []float64) {
	checkFlat(m.name, rows, dim, m.dim, data)
	nL := len(m.weights)
	maxW := 0
	for _, b := range m.biases {
		maxW = max(maxW, len(b))
	}
	cur, next := make([]float64, maxW), make([]float64, maxW)
	for r := 0; r < rows; r++ {
		in := data[r*dim : (r+1)*dim]
		for l := range m.weights {
			dst := next[:len(m.biases[l])]
			if l == nL-1 {
				dst = out[r*m.classes : (r+1)*m.classes]
			}
			m.layer(l, in, dst)
			in, cur, next = dst, next, cur
		}
	}
}
