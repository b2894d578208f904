package models

import (
	"math"
	"testing"
	"testing/quick"

	"clipper/internal/dataset"
)

// easyTask returns a well-separated train/test pair every model family
// should learn.
func easyTask(t *testing.T) (train, test *dataset.Dataset) {
	t.Helper()
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "easy", N: 600, Dim: 20, NumClasses: 3,
		Separation: 5, Noise: 1, Seed: 42,
	})
	return d.Split(0.8, 7)
}

func requireAccuracy(t *testing.T, m Model, ds *dataset.Dataset, min float64) {
	t.Helper()
	acc := Accuracy(m, ds.X, ds.Y)
	if acc < min {
		t.Fatalf("%s accuracy = %.3f, want >= %.2f", m.Name(), acc, min)
	}
}

func TestLinearSVMLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainLinearSVM("svm", train, DefaultLinearConfig()).(*linearModel)
	requireAccuracy(t, m, test, 0.9)
	if m.NumClasses() != 3 || m.dim != 20 {
		t.Fatalf("shape %d/%d", m.NumClasses(), m.dim)
	}
}

func TestLogisticRegressionLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainLogisticRegression("logreg", train, DefaultLinearConfig())
	requireAccuracy(t, m, test, 0.9)
}

func TestKernelMachineLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainKernelMachine("ksvm", train, KernelConfig{Landmarks: 128, Linear: DefaultLinearConfig(), Seed: 1}).(*kernelMachine)
	requireAccuracy(t, m, test, 0.9)
	if len(m.landmarks) != 128 {
		t.Fatalf("landmarks = %d", len(m.landmarks))
	}
}

func TestKernelMachineNonlinear(t *testing.T) {
	// XOR-style task a linear model cannot solve: class = sign(x0 * x1).
	n := 800
	d := &dataset.Dataset{Name: "xor", Dim: 2, NumClasses: 2,
		X: make([][]float64, n), Y: make([]int, n)}
	rng := newTestRand(3)
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		d.X[i] = []float64{x0, x1}
		if x0*x1 > 0 {
			d.Y[i] = 1
		}
	}
	train, test := d.Split(0.8, 1)
	lin := TrainLinearSVM("lin", train, DefaultLinearConfig())
	ker := TrainKernelMachine("ker", train, KernelConfig{Landmarks: 200, Gamma: 1.0, Linear: DefaultLinearConfig(), Seed: 1})
	linAcc := Accuracy(lin, test.X, test.Y)
	kerAcc := Accuracy(ker, test.X, test.Y)
	if kerAcc < 0.85 {
		t.Fatalf("kernel accuracy on XOR = %.3f, want >= 0.85", kerAcc)
	}
	if kerAcc <= linAcc+0.1 {
		t.Fatalf("kernel (%.3f) should clearly beat linear (%.3f) on XOR", kerAcc, linAcc)
	}
}

func TestDecisionTreeLearns(t *testing.T) {
	train, test := easyTask(t)
	cfg := DefaultTreeConfig()
	cfg.FeatureFraction = 1.0
	m := TrainDecisionTree("tree", train, cfg)
	requireAccuracy(t, m, test, 0.8)
}

func TestRandomForestLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainRandomForest("rf", train, DefaultTreeConfig()).(*randomForest)
	requireAccuracy(t, m, test, 0.85)
	if len(m.trees) != 10 {
		t.Fatalf("trees = %d", len(m.trees))
	}
}

func TestRandomForestBeatsSingleTreeOnNoisyTask(t *testing.T) {
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "noisy", N: 800, Dim: 30, NumClasses: 4,
		Separation: 2.5, Noise: 1.2, LabelNoise: 0.05, Seed: 9,
	})
	train, test := d.Split(0.8, 3)
	cfg := DefaultTreeConfig()
	cfg.Trees = 20
	tree := TrainDecisionTree("tree", train, cfg)
	rf := TrainRandomForest("rf", train, cfg)
	ta := Accuracy(tree, test.X, test.Y)
	fa := Accuracy(rf, test.X, test.Y)
	if fa < ta-0.02 {
		t.Fatalf("forest (%.3f) should not lose to single tree (%.3f)", fa, ta)
	}
}

func TestKNNLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainKNN("knn", train, 5).(*knn)
	requireAccuracy(t, m, test, 0.9)
	if m.k != 5 {
		t.Fatalf("k = %d", m.k)
	}
}

func TestKNNKExceedsN(t *testing.T) {
	d := dataset.Gaussian(dataset.GaussianConfig{Name: "tiny", N: 10, Dim: 4, NumClasses: 2, Separation: 5, Noise: 0.5, Seed: 1})
	m := TrainKNN("knn", d, 50).(*knn)
	if m.k != 10 {
		t.Fatalf("k clamped to %d, want 10", m.k)
	}
	_ = m.Predict(d.X[0])
}

func TestNaiveBayesLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainNaiveBayes("nb", train)
	requireAccuracy(t, m, test, 0.9)
}

func TestNaiveBayesMissingClass(t *testing.T) {
	// A class with zero training examples must never be predicted.
	d := dataset.Gaussian(dataset.GaussianConfig{Name: "g", N: 100, Dim: 4, NumClasses: 2, Separation: 5, Noise: 0.5, Seed: 1})
	d.NumClasses = 3 // class 2 has no examples
	m := TrainNaiveBayes("nb", d)
	for _, x := range d.X[:20] {
		if m.Predict(x) == 2 {
			t.Fatal("predicted a class with no training data")
		}
	}
}

func TestMLPLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainMLP("mlp", train, DefaultMLPConfig()).(*mlp)
	requireAccuracy(t, m, test, 0.9)
	if len(m.weights) != 2 {
		t.Fatalf("layers = %d", len(m.weights))
	}
}

func TestMLPDeepLearns(t *testing.T) {
	train, test := easyTask(t)
	m := TrainMLP("mlp2", train, MLPConfig{Hidden: []int{32, 16}, Epochs: 15, LearningRate: 0.02, BatchSize: 16, Seed: 2})
	requireAccuracy(t, m, test, 0.85)
}

// TestTrainingAllocsIndependentOfRows: the SGD trainers allocate their
// scratch once per training run, never per sample, so doubling the
// training set at a fixed epoch count allocates nothing more.
func TestTrainingAllocsIndependentOfRows(t *testing.T) {
	for _, tr := range []struct {
		name  string
		train func(*dataset.Dataset) Model
	}{
		{"mlp", func(ds *dataset.Dataset) Model {
			return TrainMLP("mlp", ds, MLPConfig{Hidden: []int{16, 8}, Epochs: 3, Seed: 1})
		}},
		{"logreg", func(ds *dataset.Dataset) Model { return TrainLogisticRegression("logreg", ds, DefaultLinearConfig()) }},
	} {
		var allocs [2]float64
		for i, rows := range []int{200, 400} {
			ds := dataset.Gaussian(dataset.GaussianConfig{
				Name: "rows", N: rows, Dim: 16, NumClasses: 4, Separation: 2, Noise: 1.5, Seed: 5,
			})
			allocs[i] = testing.AllocsPerRun(2, func() { tr.train(ds) })
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations training on 200 rows, %v on 400", tr.name, allocs[0], allocs[1])
		}
	}
}

func TestNoOp(t *testing.T) {
	m := NewNoOp("noop", 10, 3)
	if m.Predict([]float64{1, 2}) != 3 {
		t.Fatal("wrong constant label")
	}
	out := make([]float64, 2*10)
	for i := range out {
		out[i] = 999
	}
	m.ScoresFlat(make([]float64, 4), 2, 2, out)
	for i, s := range out {
		want := 0.0
		if i%10 == 3 {
			want = 1
		}
		if s != want {
			t.Fatalf("score %d = %v, want a one-hot row on label 3", i, s)
		}
	}
	bad := NewNoOp("noop", 2, 9)
	if bad.Predict(nil) != 0 {
		t.Fatal("out-of-range label should clamp to 0")
	}
}

func TestScoresShapeAndArgmaxConsistency(t *testing.T) {
	train, test := easyTask(t)
	ms := []Model{
		TrainLinearSVM("svm", train, DefaultLinearConfig()),
		TrainLogisticRegression("lr", train, DefaultLinearConfig()),
		TrainNaiveBayes("nb", train),
		TrainKNN("knn", train, 3),
		TrainDecisionTree("tree", train, DefaultTreeConfig()),
		TrainRandomForest("rf", train, DefaultTreeConfig()),
		TrainMLP("mlp", train, DefaultMLPConfig()),
		TrainKernelMachine("ksvm", train, KernelConfig{Landmarks: 64, Linear: DefaultLinearConfig(), Seed: 1}),
	}
	for _, m := range ms {
		for _, x := range test.X[:10] {
			scores := Scores(m, x)
			if len(scores) != m.NumClasses() {
				t.Fatalf("%s: %d scores for %d classes", m.Name(), len(scores), m.NumClasses())
			}
			if argmax(scores) != m.Predict(x) {
				t.Fatalf("%s: Predict disagrees with argmax(Scores)", m.Name())
			}
		}
	}
}

func TestDimMismatchPanics(t *testing.T) {
	train, _ := easyTask(t)
	m := TrainLinearSVM("svm", train, DefaultLinearConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	m.Predict([]float64{1})
}

func TestAccuracyHelpers(t *testing.T) {
	m := NewNoOp("noop", 2, 1)
	xs := [][]float64{{0}, {0}, {0}, {0}}
	ys := []int{1, 1, 0, 0}
	if got := Accuracy(m, xs, ys); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := ErrorRate(m, xs, ys); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("ErrorRate = %v", got)
	}
	if Accuracy(m, nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestTable2Specs(t *testing.T) {
	specs := Table2()
	if len(specs) != 5 {
		t.Fatalf("Table2 has %d entries, want 5", len(specs))
	}
	if specs[2].Name != "ResNet" || specs[2].Conv != 151 {
		t.Fatalf("ResNet row wrong: %+v", specs[2])
	}
	if specs[4].Inception != 3 {
		t.Fatalf("Inception row wrong: %+v", specs[4])
	}
}

func TestTrainEnsembleVaryingAccuracy(t *testing.T) {
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "ens", N: 600, Dim: 24, NumClasses: 5,
		Separation: 3, Noise: 1.2, LabelNoise: 0.05, Seed: 21,
	})
	train, test := d.Split(0.8, 2)
	ens := TrainEnsemble(train)
	if len(ens) != 5 {
		t.Fatalf("ensemble size %d", len(ens))
	}
	accs := make([]float64, len(ens))
	for i, m := range ens {
		accs[i] = Accuracy(m, test.X, test.Y)
		if accs[i] < 0.3 {
			t.Fatalf("%s accuracy %.3f too low to be useful", m.Name(), accs[i])
		}
	}
	// The ensemble members must not all have identical accuracy: the
	// selection-layer experiments rely on a spread.
	min, max := accs[0], accs[0]
	for _, a := range accs {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if max-min < 0.005 {
		t.Fatalf("ensemble accuracies too uniform: %v", accs)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 50)
		}
		softmaxInPlace(v)
		sum := 0.0
		for _, p := range v {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Symmetry property.
	for _, z := range []float64{-3, -1, 0.5, 2} {
		if math.Abs(sigmoid(z)+sigmoid(-z)-1) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %v", z)
		}
	}
}
