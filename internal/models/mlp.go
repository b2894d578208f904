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
	m := &mlp{name: name, dim: ds.Dim, classes: ds.NumClasses}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([][]float64, out)
		scale := math.Sqrt(2.0 / float64(in)) // He init for ReLU
		for o := range w {
			w[o] = make([]float64, in)
			for i := range w[o] {
				w[o][i] = rng.NormFloat64() * scale
			}
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}

	n := ds.Len()
	for e := 0; e < cfg.Epochs; e++ {
		eta := cfg.LearningRate / (1 + 0.3*float64(e))
		perm := rng.Perm(n)
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			m.sgdStep(ds, perm[start:end], eta)
		}
	}
	return m
}

// sgdStep accumulates gradients over one mini-batch and applies them.
func (m *mlp) sgdStep(ds *dataset.Dataset, idx []int, eta float64) {
	nL := len(m.weights)
	gradW := make([][][]float64, nL)
	gradB := make([][]float64, nL)
	for l := range m.weights {
		gradW[l] = make([][]float64, len(m.weights[l]))
		for o := range gradW[l] {
			gradW[l][o] = make([]float64, len(m.weights[l][o]))
		}
		gradB[l] = make([]float64, len(m.biases[l]))
	}

	for _, i := range idx {
		acts, zs := m.forward(ds.X[i])
		// Output delta: softmax cross-entropy gradient.
		out := append([]float64(nil), acts[nL]...)
		softmaxInPlace(out)
		delta := out
		delta[ds.Y[i]] -= 1
		for l := nL - 1; l >= 0; l-- {
			in := acts[l]
			for o := range m.weights[l] {
				if delta[o] == 0 {
					continue
				}
				axpy(delta[o], in, gradW[l][o])
				gradB[l][o] += delta[o]
			}
			if l == 0 {
				break
			}
			// Back-propagate through weights then the ReLU at layer l-1.
			prev := make([]float64, len(in))
			for o, w := range m.weights[l] {
				if delta[o] == 0 {
					continue
				}
				axpy(delta[o], w, prev)
			}
			for j := range prev {
				if zs[l-1][j] <= 0 {
					prev[j] = 0
				}
			}
			delta = prev
		}
	}

	scale := eta / float64(len(idx))
	for l := range m.weights {
		for o := range m.weights[l] {
			axpy(-scale, gradW[l][o], m.weights[l][o])
			m.biases[l][o] -= scale * gradB[l][o]
		}
	}
}

// forward returns activations per layer (acts[0] = input, acts[L] = logits)
// and pre-activations zs per hidden layer.
func (m *mlp) forward(x []float64) (acts [][]float64, zs [][]float64) {
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

// Name implements Model.
func (m *mlp) Name() string { return m.name }

// NumClasses implements Model.
func (m *mlp) NumClasses() int { return m.classes }

// Predict implements Model.
func (m *mlp) Predict(x []float64) int { return label(m, x) }

// ScoresFlat implements Model: output logits for every row of a flat
// row-major tensor. Two ping-pong activation buffers are reused across
// all rows and layers, so the whole batch costs two scratch allocations
// instead of forward()'s two per layer per row.
func (m *mlp) ScoresFlat(data []float64, rows, dim int, out []float64) {
	checkFlat(m.name, rows, dim, m.dim, data)
	nL := len(m.weights)
	maxW := 0
	for l := range m.weights {
		if w := len(m.weights[l]); w > maxW {
			maxW = w
		}
	}
	cur, next := make([]float64, maxW), make([]float64, maxW)
	for r := 0; r < rows; r++ {
		in := data[r*dim : (r+1)*dim]
		for l := 0; l < nL; l++ {
			dst := next[:len(m.weights[l])]
			if l == nL-1 {
				dst = out[r*m.classes : (r+1)*m.classes]
			}
			for o, w := range m.weights[l] {
				z := dot(w, in) + m.biases[l][o]
				if l < nL-1 && z < 0 {
					z = 0 // hidden ReLU; the output layer stays raw logits
				}
				dst[o] = z
			}
			in = dst
			cur, next = next, cur
		}
	}
}
