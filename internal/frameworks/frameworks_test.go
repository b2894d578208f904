package frameworks

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"clipper/internal/container"
	"clipper/internal/dataset"
	"clipper/internal/models"
)

func TestProfileExpectedLinearInBatchSize(t *testing.T) {
	p := Profile{Fixed: time.Millisecond, PerItem: 10 * time.Microsecond}
	if got := p.expected(0); got != 0 {
		t.Fatalf("expected(0) = %v", got)
	}
	one := p.expected(1)
	hundred := p.expected(100)
	if one != time.Millisecond+10*time.Microsecond {
		t.Fatalf("expected(1) = %v", one)
	}
	if hundred != time.Millisecond+time.Millisecond {
		t.Fatalf("expected(100) = %v", hundred)
	}
}

func TestProfileParallelismReducesMarginalCost(t *testing.T) {
	serial := Profile{Fixed: 0, PerItem: 100 * time.Microsecond, Parallelism: 0}
	parallel := Profile{Fixed: 0, PerItem: 100 * time.Microsecond, Parallelism: 1}
	if serial.expected(10) != 10*parallel.expected(10) {
		t.Fatalf("serial=%v parallel=%v", serial.expected(10), parallel.expected(10))
	}
	if parallel.expected(1000) != parallel.expected(1) {
		t.Fatal("fully parallel batches should be constant-time")
	}
}

func TestProfileStaticBatchPadding(t *testing.T) {
	p := Profile{PerItem: time.Microsecond, StaticBatch: 8}
	if p.expected(1) != p.expected(8) {
		t.Fatal("batch of 1 should pad to 8")
	}
	if p.expected(9) != p.expected(16) {
		t.Fatal("batch of 9 should pad to 16")
	}
}

func TestProfileMonotoneProperty(t *testing.T) {
	// Property: expected latency never decreases with batch size.
	f := func(fixedUS, perItemUS uint16, par float64, n uint8) bool {
		p := Profile{
			Fixed:       time.Duration(fixedUS) * time.Microsecond,
			PerItem:     time.Duration(perItemUS) * time.Microsecond,
			Parallelism: par - float64(int(par)), // fold into [0,1)
		}
		a := p.expected(int(n))
		b := p.expected(int(n) + 1)
		return b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileJitterBounded(t *testing.T) {
	p := Profile{Fixed: time.Millisecond, PerItem: time.Microsecond, Jitter: 0.1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := p.BatchDuration(10, rng)
		if d <= 0 {
			t.Fatalf("non-positive jittered duration %v", d)
		}
	}
}

func TestProfileGCPause(t *testing.T) {
	p := Profile{Fixed: time.Millisecond, GCPauseEvery: 1, GCPause: 50 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	d := p.BatchDuration(1, rng)
	if d < 50*time.Millisecond {
		t.Fatalf("GC pause not injected: %v", d)
	}
	if det := p.BatchDuration(1, nil); det != time.Millisecond {
		t.Fatalf("nil rng should be deterministic: %v", det)
	}
}

func TestMaxBatchWithinSLO(t *testing.T) {
	p := Profile{Fixed: time.Millisecond, PerItem: time.Millisecond}
	// 1ms + n*1ms <= 10ms => n <= 9.
	if got := p.MaxBatchWithinSLO(10*time.Millisecond, 100); got != 9 {
		t.Fatalf("MaxBatchWithinSLO = %d, want 9", got)
	}
	heavy := Profile{Fixed: 20 * time.Millisecond}
	if got := heavy.MaxBatchWithinSLO(10*time.Millisecond, 100); got != 0 {
		t.Fatalf("infeasible SLO should yield 0, got %d", got)
	}
}

func TestProfileSLORatios(t *testing.T) {
	// The paper reports a 241x spread between the linear SVM's and kernel
	// SVM's maximum batch size under a 20ms SLO. Our calibrated profiles
	// must preserve a >=100x spread.
	slo := 20 * time.Millisecond
	lin := SKLearnLinearSVM().MaxBatchWithinSLO(slo, 100000)
	ker := SKLearnKernelSVM().MaxBatchWithinSLO(slo, 100000)
	if ker == 0 || lin == 0 {
		t.Fatalf("degenerate SLO batches lin=%d ker=%d", lin, ker)
	}
	ratio := float64(lin) / float64(ker)
	if ratio < 100 {
		t.Fatalf("linear/kernel batch ratio = %.0f, want >= 100 (paper: 241)", ratio)
	}
}

func TestFigure3ProfilesComplete(t *testing.T) {
	ps := Figure3Profiles()
	if len(ps) != 6 {
		t.Fatalf("got %d profiles, want 6", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" {
			t.Fatal("unnamed profile")
		}
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
	}
}

func TestSimPredictorPredictionsAndLatency(t *testing.T) {
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "g", N: 300, Dim: 10, NumClasses: 3, Separation: 5, Noise: 1, Seed: 1,
	})
	train, test := d.Split(0.8, 1)
	m := models.TrainLinearSVM("svm", train, models.DefaultLinearConfig())
	profile := Profile{Name: "test", Fixed: 2 * time.Millisecond, PerItem: 10 * time.Microsecond}
	p := NewSimPredictor(m, profile, d.Dim, 1)

	if p.Info().Name != "svm" || p.Info().NumClasses != 3 {
		t.Fatalf("Info = %+v", p.Info())
	}
	start := time.Now()
	preds, err := p.PredictBatch(test.X[:8])
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 8 {
		t.Fatalf("got %d predictions", len(preds))
	}
	for i, pr := range preds {
		if pr.Label != m.Predict(test.X[i]) {
			t.Fatal("sim predictions must match the wrapped model")
		}
		if pr.Scores == nil {
			t.Fatal("scorer model should emit scores")
		}
	}
	want := profile.expected(8)
	if elapsed < want {
		t.Fatalf("batch returned in %v, profile demands >= %v", elapsed, want)
	}
	if elapsed > want+20*time.Millisecond {
		t.Fatalf("batch took %v, far over target %v", elapsed, want)
	}
}

// TestSimPredictorViewMatchesBatch pins the two shapes' contract:
// PredictView must produce exactly PredictBatch's labels and scores, called
// in process and end to end through a Loopback deployment. A uniform view
// takes the flat branch for every model: the dense families on the small
// task, and bayes, tree, forest and GBDT at the serving shape (784
// features, 10 classes), held to the labels and scores the models give row
// by row.
func TestSimPredictorViewMatchesBatch(t *testing.T) {
	d := dataset.Gaussian(dataset.GaussianConfig{
		Name: "g", N: 300, Dim: 10, NumClasses: 3, Separation: 5, Noise: 1, Seed: 1,
	})
	train, test := d.Split(0.8, 1)
	wide, wideTest := dataset.MNISTLike(316, 1).Split(300.0/316, 1)
	cases := []struct {
		m  models.Model
		xs [][]float64
	}{
		{models.TrainLinearSVM("svm", train, models.DefaultLinearConfig()), test.X[:16]},
		{models.TrainMLP("mlp", train, models.MLPConfig{Hidden: []int{16}, Epochs: 2, Seed: 1}), test.X[:16]},
		{models.TrainKernelMachine("ksvm", train, models.KernelConfig{Landmarks: 32, Linear: models.DefaultLinearConfig(), Seed: 1}), test.X[:16]},
		{models.TrainKNN("knn", train, 5), test.X[:16]},
		{models.TrainNaiveBayes("bayes", wide), wideTest.X},
		{models.TrainDecisionTree("tree", wide, models.TreeConfig{MaxDepth: 6, MinLeaf: 4, Seed: 1}), wideTest.X},
		{models.TrainRandomForest("rf", wide, models.TreeConfig{Trees: 4, MaxDepth: 6, Seed: 1}), wideTest.X},
		{models.TrainGBDT("gbdt", wide, models.GBDTConfig{Rounds: 2, Depth: 2, FeatureFraction: 0.05, Seed: 1}), wideTest.X},
	}
	for _, tc := range cases {
		m, xs := tc.m, tc.xs
		p := NewSimPredictor(m, Profile{Name: "free"}, len(xs[0]), 1)
		want, err := p.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		byRow := make([]container.Prediction, len(xs))
		for i, x := range xs {
			byRow[i] = container.Prediction{Label: m.Predict(x), Scores: models.Scores(m, x)}
		}
		requireSamePreds(t, m.Name()+"/batch", want, byRow)
		requireSamePreds(t, m.Name()+"/local", predictView(t, p, xs), want)

		remote, stop, err := container.Loopback(p)
		if err != nil {
			t.Fatal(err)
		}
		viaRPC, err := remote.PredictBatch(xs)
		stop()
		if err != nil {
			t.Fatal(err)
		}
		requireSamePreds(t, m.Name()+"/loopback", viaRPC, want)
	}
}

// predictView runs xs through p's view shape in process.
func predictView(t *testing.T, p *SimPredictor, xs [][]float64) []container.Prediction {
	t.Helper()
	var v container.BatchView
	for _, x := range xs {
		v.AppendRow(x)
	}
	got := make([]container.Prediction, len(xs))
	err := container.NewLocal(p).PredictViewContext(context.Background(), &v,
		func(i int, pr container.Prediction) { got[i] = pr })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// raggedScorer scores rows of any width, which no trained model does (a
// wrong-width row panics), so it is what can stand behind a ragged view. It
// counts row evaluations, Predict's included, so a path that ran the model
// twice over a row would show.
type raggedScorer struct {
	*models.NoOp
	calls int
}

func (m *raggedScorer) scores(x []float64) []float64 {
	s := []float64{0, float64(len(x)), 0}
	for _, v := range x {
		s[2] += v
	}
	return s
}

func (m *raggedScorer) ScoresFlat(data []float64, rows, dim int, out []float64) {
	for r := 0; r < rows; r++ {
		m.calls++
		copy(out[r*3:(r+1)*3], m.scores(data[r*dim:(r+1)*dim]))
	}
}

func (m *raggedScorer) Predict(x []float64) int { return models.Argmax(models.Scores(m, x)) }

// TestSimPredictorRaggedViewMatchesBatch: a ragged view has no tensor to
// hand ScoresFlat, so PredictView walks it row by row — one evaluation per
// row, the label its scores' Argmax — and must still equal PredictBatch.
func TestSimPredictorRaggedViewMatchesBatch(t *testing.T) {
	m := &raggedScorer{NoOp: models.NewNoOp("ragged", 3, 0)}
	p := NewSimPredictor(m, Profile{Name: "free"}, 0, 1)
	xs := [][]float64{{1, 2, 3}, {9}, {4, -5}, {0.5, 0.25, 8, 1}}
	want, err := p.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	if m.calls != len(xs) {
		t.Fatalf("PredictBatch ran the model %d times over %d rows", m.calls, len(xs))
	}
	for i, pr := range want {
		if s := m.scores(xs[i]); pr.Label != models.Argmax(s) || pr.Scores[2] != s[2] {
			t.Fatalf("row %d: %+v, scores %v", i, pr, s)
		}
	}
	requireSamePreds(t, "ragged/local", predictView(t, p, xs), want)
	if m.calls != 2*len(xs) {
		t.Fatalf("ragged view ran the model %d times over %d rows", m.calls-len(xs), len(xs))
	}
}

// TestSimPredictorViewAllocs: the flat branch scores a bayes batch at the
// serving shape into the reused response view without allocating — not per
// row, not per batch.
func TestSimPredictorViewAllocs(t *testing.T) {
	train, test := dataset.MNISTLike(364, 1).Split(300.0/364, 1)
	p := NewSimPredictor(models.TrainNaiveBayes("bayes", train), Profile{Name: "free"}, train.Dim, 1)
	var v container.BatchView
	for _, x := range test.X {
		v.AppendRow(x)
	}
	var out container.PredictionView
	predict := func() {
		if err := p.PredictView(v, &out); err != nil {
			t.Fatal(err)
		}
	}
	predict() // grow the view once
	if allocs := testing.AllocsPerRun(20, predict); allocs != 0 {
		t.Fatalf("PredictView over %d×%d allocates %v times per batch, want 0", v.Rows(), v.Dim(), allocs)
	}
}

func requireSamePreds(t *testing.T, name string, got, want []container.Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("%s: row %d label %d, want %d", name, i, got[i].Label, want[i].Label)
		}
		if len(got[i].Scores) != len(want[i].Scores) {
			t.Fatalf("%s: row %d has %d scores, want %d", name, i, len(got[i].Scores), len(want[i].Scores))
		}
		for c := range want[i].Scores {
			if got[i].Scores[c] != want[i].Scores[c] {
				t.Fatalf("%s: row %d score %d = %v, want %v", name, i, c, got[i].Scores[c], want[i].Scores[c])
			}
		}
	}
}

// TestSimPredictorNoOpScoresOneHot: a no-op prediction carries its label
// and a one-hot score row on it, by both shapes.
func TestSimPredictorNoOpScoresOneHot(t *testing.T) {
	p := NewSimPredictor(models.NewNoOp("noop", 3, 2), NoOpContainer(), 0, 1)
	xs := [][]float64{{1}, {2}}
	preds, err := p.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := container.Prediction{Label: 2, Scores: []float64{0, 0, 1}}
	requireSamePreds(t, "noop/batch", preds, []container.Prediction{want, want})
	requireSamePreds(t, "noop/view", predictView(t, p, xs), preds)
}
