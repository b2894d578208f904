package experiments

import (
	"fmt"

	"clipper/internal/dataset"
	"clipper/internal/models"
)

// runTable1 reproduces Table 1: the benchmark dataset inventory.
func runTable1(scale Scale) (Result, error) {
	res := Result{ID: "table1", Title: "Datasets (paper Table 1)"}
	res.Lines = append(res.Lines,
		fmt.Sprintf("%-15s %-6s %-9s %-24s %s", "Dataset", "Type", "Size", "Features", "Labels"))
	for _, row := range dataset.Table1() {
		res.Lines = append(res.Lines,
			fmt.Sprintf("%-15s %-6s %-9d %-24s %d", row.Name, row.Type, row.Size, row.Features, row.Labels))
	}
	return res, nil
}

// runTable2 reproduces Table 2: the deep-model inventory used by the
// ImageNet ensemble, with this reproduction's stand-in accuracies.
func runTable2(scale Scale) (Result, error) {
	res := Result{ID: "table2", Title: "Deep Learning Models (paper Table 2)"}

	n := 2500
	if scale == Full {
		n = 6000
	}
	ds := imagenetStandin(n)
	train, test := ds.Split(0.8, 7)

	res.Lines = append(res.Lines,
		fmt.Sprintf("%-11s %-10s %-28s %s", "Framework", "Model", "Size (paper layers)", "Stand-in top-1 acc"))
	for _, spec := range models.Table2() {
		m := spec.Train(train)
		acc := models.Accuracy(m, test.X, test.Y)
		size := fmt.Sprintf("%d Conv. and %d FC", spec.Conv, spec.FC)
		if spec.Inception > 0 {
			size = fmt.Sprintf("%d Conv, %d FC, & %d Incept.", spec.Conv, spec.FC, spec.Inception)
		}
		res.Lines = append(res.Lines,
			fmt.Sprintf("%-11s %-10s %-28s %.3f", spec.Framework, spec.Name, size, acc))
	}
	return res, nil
}

// imagenetStandin is a reduced-dimensionality ImageNet-like task used by
// the accuracy experiments (training 5 networks on the full 4096-dim
// generator is disproportionate to what the experiments measure).
func imagenetStandin(n int) *dataset.Dataset {
	return dataset.Gaussian(dataset.GaussianConfig{
		Name: "imagenet-standin", N: n, Dim: 128, NumClasses: 20,
		Separation: 4.2, Noise: 1.0, LabelNoise: 0.04, Seed: 77,
	})
}

// cifarStandin is the reduced CIFAR-like accuracy task.
func cifarStandin(n int) *dataset.Dataset {
	return dataset.Gaussian(dataset.GaussianConfig{
		Name: "cifar-standin", N: n, Dim: 96, NumClasses: 10,
		Separation: 3.2, Noise: 1.0, LabelNoise: 0.05, Seed: 33,
	})
}

// mnistStandin is the reduced MNIST-like task for serving experiments that
// need real trained models but not 784 dims.
func mnistStandin(n int) *dataset.Dataset {
	return dataset.Gaussian(dataset.GaussianConfig{
		Name: "mnist-standin", N: n, Dim: 64, NumClasses: 10,
		Separation: 3.5, Noise: 1.0, LabelNoise: 0.02, Seed: 11,
	})
}
