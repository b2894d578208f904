package models

import (
	"testing"

	"clipper/internal/dataset"
)

func TestGBDTLearnsEasyTask(t *testing.T) {
	train, test := easyTask(t)
	m := TrainGBDT("gbdt", train, DefaultGBDTConfig()).(*gbdt)
	requireAccuracy(t, m, test, 0.85)
	if len(m.trees) != 20 {
		t.Fatalf("rounds = %d", len(m.trees))
	}
}

func TestGBDTBeatsSingleTreeOnNonlinearTask(t *testing.T) {
	// XOR-like structure where axis-aligned single splits are weak and
	// boosting shines.
	n := 1200
	d := &dataset.Dataset{Name: "xor", Dim: 2, NumClasses: 2,
		X: make([][]float64, n), Y: make([]int, n)}
	rng := newTestRand(11)
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		d.X[i] = []float64{x0, x1}
		if x0*x1 > 0 {
			d.Y[i] = 1
		}
	}
	train, test := d.Split(0.8, 2)
	stump := TrainDecisionTree("stump", train, TreeConfig{MaxDepth: 1, FeatureFraction: 1, Seed: 1})
	gbdt := TrainGBDT("gbdt", train, GBDTConfig{Rounds: 40, Depth: 3, LearningRate: 0.3, Seed: 1})
	sAcc := Accuracy(stump, test.X, test.Y)
	gAcc := Accuracy(gbdt, test.X, test.Y)
	if gAcc < 0.85 {
		t.Fatalf("GBDT accuracy on XOR = %.3f, want >= 0.85", gAcc)
	}
	if gAcc <= sAcc+0.15 {
		t.Fatalf("GBDT (%.3f) should clearly beat a stump (%.3f)", gAcc, sAcc)
	}
}

func TestGBDTMoreRoundsHelp(t *testing.T) {
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "g", N: 900, Dim: 16, NumClasses: 3,
		Separation: 2.5, Noise: 1.2, Seed: 4,
	})
	train, test := d.Split(0.8, 1)
	few := TrainGBDT("few", train, GBDTConfig{Rounds: 2, Depth: 3, Seed: 1})
	many := TrainGBDT("many", train, GBDTConfig{Rounds: 30, Depth: 3, Seed: 1}).(*gbdt)
	fa := Accuracy(few, test.X, test.Y)
	ma := Accuracy(many, test.X, test.Y)
	if ma < fa {
		t.Fatalf("more rounds hurt: %d rounds %.3f vs 2 rounds %.3f", len(many.trees), ma, fa)
	}
}

func TestGBDTScoresConsistent(t *testing.T) {
	train, test := easyTask(t)
	m := TrainGBDT("gbdt", train, GBDTConfig{Rounds: 8, Seed: 2}).(*gbdt)
	for _, x := range test.X[:10] {
		s := Scores(m, x)
		if len(s) != m.NumClasses() {
			t.Fatalf("scores len %d", len(s))
		}
		if argmax(s) != m.Predict(x) {
			t.Fatal("Predict disagrees with Scores")
		}
	}
}

func TestGBDTDimCheck(t *testing.T) {
	train, _ := easyTask(t)
	m := TrainGBDT("gbdt", train, GBDTConfig{Rounds: 2, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected dim-mismatch panic")
		}
	}()
	m.Predict([]float64{1})
}
