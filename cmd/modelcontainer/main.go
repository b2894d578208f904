// Command modelcontainer hosts a single model as a standalone RPC model
// container — the process-isolation deployment of paper §4.4 (the role
// Docker plays in the original system). A Clipper node connects to it with
// clipper.DialContainer and deploys the handle like any local model.
//
// The model is trained at startup on a seeded synthetic dataset, so a
// matching Clipper node (same -seed, -dim, -classes) serves consistent
// data.
//
// Usage:
//
//	modelcontainer -addr :7000 -model linear-svm -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"clipper"
	"clipper/internal/dataset"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

func main() {
	var (
		addr    = flag.String("addr", ":7000", "container RPC listen address")
		model   = flag.String("model", "linear-svm", "model family: linear-svm|log-regression|random-forest|kernel-svm|knn|naive-bayes|mlp|gbdt|noop")
		profile = flag.String("profile", "", "framework latency profile (empty = none): sklearn-linear|sklearn-rf|sklearn-kernel|sklearn-logreg|pyspark|noop|gpu")
		trainN  = flag.Int("train", 2000, "synthetic training examples")
		dim     = flag.Int("dim", 64, "feature dimensionality")
		classes = flag.Int("classes", 10, "number of classes")
		seed    = flag.Int64("seed", 42, "dataset seed (match the serving node)")
	)
	flag.Parse()

	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "container-train", N: *trainN, Dim: *dim, NumClasses: *classes,
		Separation: 3.0, Noise: 1.0, LabelNoise: 0.03, Seed: *seed,
	})

	m, err := trainModel(*model, ds)
	if err != nil {
		log.Fatal(err)
	}

	var pred clipper.Predictor
	if p, ok := lookupProfile(*profile); ok {
		pred = frameworks.NewSimPredictor(m, p, *dim, *seed)
	} else if *profile != "" {
		log.Fatalf("unknown profile %q", *profile)
	} else {
		pred = frameworks.NewSimPredictor(m, frameworks.Profile{Name: "direct"}, *dim, *seed)
	}

	bound, stop, err := clipper.ServeContainer(pred, *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	defer stop()
	log.Printf("model container %q serving on %s", m.Name(), bound)
	fmt.Printf("connect from a Clipper node with clipper.DialContainer(%q, timeout, 1)\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
}

func trainModel(kind string, ds *dataset.Dataset) (models.Model, error) {
	switch kind {
	case "linear-svm":
		return models.TrainLinearSVM(kind, ds, models.DefaultLinearConfig()), nil
	case "log-regression":
		return models.TrainLogisticRegression(kind, ds, models.DefaultLinearConfig()), nil
	case "random-forest":
		return models.TrainRandomForest(kind, ds, models.DefaultTreeConfig()), nil
	case "kernel-svm":
		return models.TrainKernelMachine(kind, ds, models.DefaultKernelConfig()), nil
	case "knn":
		return models.TrainKNN(kind, ds, 5), nil
	case "naive-bayes":
		return models.TrainNaiveBayes(kind, ds), nil
	case "mlp":
		return models.TrainMLP(kind, ds, models.DefaultMLPConfig()), nil
	case "gbdt":
		return models.TrainGBDT(kind, ds, models.DefaultGBDTConfig()), nil
	case "noop":
		return models.NewNoOp(kind, ds.NumClasses, 0), nil
	default:
		return nil, fmt.Errorf("unknown model family %q", kind)
	}
}

func lookupProfile(name string) (frameworks.Profile, bool) {
	switch name {
	case "sklearn-linear":
		return frameworks.SKLearnLinearSVM(), true
	case "sklearn-rf":
		return frameworks.SKLearnRandomForest(), true
	case "sklearn-kernel":
		return frameworks.SKLearnKernelSVM(), true
	case "sklearn-logreg":
		return frameworks.SKLearnLogisticRegression(), true
	case "pyspark":
		return frameworks.PySparkLinearSVM(), true
	case "noop":
		return frameworks.NoOpContainer(), true
	case "gpu":
		return frameworks.GPUDeepModel("gpu", 16), true
	default:
		return frameworks.Profile{}, false
	}
}
