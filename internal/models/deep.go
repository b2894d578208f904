package models

import "clipper/internal/dataset"

// DeepSpec describes one of the "deep learning" models in the paper's
// Table 2, which the ImageNet ensemble experiment (Figure 7) combines.
// Conv/FC counts are the paper's; Hidden/Epochs parameterize the MLP that
// stands in for the network here (different capacities and training budgets
// yield the differing accuracies the ensemble exploits).
type DeepSpec struct {
	Framework string
	Name      string
	Conv      int
	FC        int
	Inception int
	Hidden    []int
	Epochs    int
	Seed      int64
}

// Table2 returns the deep-model inventory matching the paper's Table 2.
func Table2() []DeepSpec {
	return []DeepSpec{
		{Framework: "Caffe", Name: "VGG", Conv: 13, FC: 3, Hidden: []int{96, 96}, Epochs: 8, Seed: 11},
		{Framework: "Caffe", Name: "GoogLeNet", Conv: 96, FC: 5, Hidden: []int{128, 64}, Epochs: 10, Seed: 12},
		{Framework: "Caffe", Name: "ResNet", Conv: 151, FC: 1, Hidden: []int{160, 80}, Epochs: 12, Seed: 13},
		{Framework: "Caffe", Name: "CaffeNet", Conv: 5, FC: 3, Hidden: []int{48}, Epochs: 5, Seed: 14},
		{Framework: "TensorFlow", Name: "Inception", Conv: 6, FC: 1, Inception: 3, Hidden: []int{112, 56}, Epochs: 10, Seed: 15},
	}
}

// Train trains the stand-in network for this spec on ds.
func (s DeepSpec) Train(ds *dataset.Dataset) Model {
	return TrainMLP(s.Framework+"/"+s.Name, ds, MLPConfig{
		Hidden:       s.Hidden,
		Epochs:       s.Epochs,
		LearningRate: 0.01,
		BatchSize:    32,
		Seed:         s.Seed,
	})
}

// TrainEnsemble trains all Table 2 stand-ins on ds and returns them in
// Table 2 order.
func TrainEnsemble(ds *dataset.Dataset) []Model {
	specs := Table2()
	out := make([]Model, len(specs))
	for i, s := range specs {
		out[i] = s.Train(ds)
	}
	return out
}
