package models

import (
	"math"
	"strings"
	"testing"
	"time"

	"clipper/internal/dataset"
	"clipper/internal/testutil"
)

// ScoresFlat serves whole batches off the zero-copy tensor decode; a row's
// scores must not depend on the batch it arrives in, and its label is
// their Argmax. Any drift here would silently change served predictions
// depending on how the batching layer grouped the queries.

// flatModels trains one of each trained model family on the shared easy
// task.
func flatModels(t *testing.T) []Model {
	t.Helper()
	train, _ := easyTask(t)
	return []Model{
		TrainNaiveBayes("flat-bayes", train),
		TrainDecisionTree("flat-tree", train, DefaultTreeConfig()),
		TrainRandomForest("flat-forest", train, DefaultTreeConfig()),
		TrainGBDT("flat-gbdt", train, GBDTConfig{Rounds: 5, Seed: 1}),
		TrainLinearSVM("flat-svm", train, DefaultLinearConfig()),
		TrainLogisticRegression("flat-logreg", train, DefaultLinearConfig()),
		TrainMLP("flat-mlp", train, MLPConfig{Hidden: []int{32, 16}, Epochs: 3, Seed: 1}),
		TrainKernelMachine("flat-ksvm", train, KernelConfig{Landmarks: 64, Linear: DefaultLinearConfig(), Seed: 1}),
		TrainKNN("flat-knn", train, 5),
	}
}

func flatten(xs [][]float64) []float64 {
	out := make([]float64, 0, len(xs)*len(xs[0]))
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

func TestScoresFlatMatchesScores(t *testing.T) {
	_, test := easyTask(t)
	xs := test.X[:64]
	data := flatten(xs)
	dim := len(xs[0])
	for _, m := range flatModels(t) {
		nc := m.NumClasses()
		out := make([]float64, len(xs)*nc)
		// Dirty scratch: implementations must overwrite, not accumulate.
		for i := range out {
			out[i] = 999
		}
		m.ScoresFlat(data, len(xs), dim, out)
		for r, x := range xs {
			want := Scores(m, x)
			got := out[r*nc : (r+1)*nc]
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%s row %d class %d: flat %v, serial %v", m.Name(), r, c, got[c], want[c])
				}
			}
		}
	}
}

// TestRowKernelsFlatMatchesScores holds every family to the flat contract
// at the row kernels' corners (kernelZoo: an empty class, a zero-count
// leaf) over three seeds:
// ScoresFlat over the 64-row batch is Scores row by row, and its Argmax is
// Predict. TestScoresMatchReference ties Scores itself to the old
// arithmetic.
func TestRowKernelsFlatMatchesScores(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ms, xs := kernelZoo(t, seed)
		data, dim := flatten(xs), len(xs[0])
		for _, m := range ms {
			nc := m.NumClasses()
			out := make([]float64, len(xs)*nc)
			for i := range out {
				out[i] = 999
			}
			m.ScoresFlat(data, len(xs), dim, out)
			for r, x := range xs {
				got := out[r*nc : (r+1)*nc]
				for c, want := range Scores(m, x) {
					if got[c] != want {
						t.Fatalf("seed %d %s row %d class %d: flat %v, serial %v", seed, m.Name(), r, c, got[c], want)
					}
				}
				if l := m.Predict(x); Argmax(got) != l {
					t.Fatalf("seed %d %s row %d: Argmax %d, Predict %d", seed, m.Name(), r, Argmax(got), l)
				}
			}
		}
	}
}

func TestFlatArgmaxMatchesPredictBatch(t *testing.T) {
	_, test := easyTask(t)
	xs := test.X[:64]
	data := flatten(xs)
	dim := len(xs[0])
	for _, m := range flatModels(t) {
		nc := m.NumClasses()
		scores := make([]float64, len(xs)*nc)
		m.ScoresFlat(data, len(xs), dim, scores)
		for r, x := range xs {
			if got, want := Argmax(scores[r*nc:(r+1)*nc]), m.Predict(x); got != want {
				t.Fatalf("%s row %d: flat label %d, Predict %d", m.Name(), r, got, want)
			}
		}
	}
}

func TestScoresFlatPerBatchAllocs(t *testing.T) {
	// The point of the flat path: per-batch scratch, not per-row. Each
	// family's ScoresFlat must allocate a constant number of slices
	// regardless of row count (linear: 0; mlp: 2; kernel: 1; knn: 1), and
	// the row-kernel models (bayes, tree, forest, gbdt) and NoOp none at all.
	_, test := easyTask(t)
	xs := test.X[:32]
	data := flatten(xs)
	dim := len(xs[0])
	maxAllocs := map[string]float64{
		"flat-svm": 0, "flat-logreg": 0, "flat-mlp": 2, "flat-ksvm": 1, "flat-knn": 1,
		"flat-bayes": 0, "flat-tree": 0, "flat-forest": 0, "flat-gbdt": 0, "flat-noop": 0,
	}
	for _, m := range append(flatModels(t), NewNoOp("flat-noop", 3, 1)) {
		out := make([]float64, len(xs)*m.NumClasses())
		allocs := testing.AllocsPerRun(20, func() {
			m.ScoresFlat(data, len(xs), dim, out)
		})
		if want := maxAllocs[m.Name()]; allocs > want {
			t.Errorf("%s ScoresFlat allocates %v/batch, want <= %v", m.Name(), allocs, want)
		}
	}
}

func TestScoresFlatDimMismatchPanics(t *testing.T) {
	for _, m := range flatModels(t) {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s ScoresFlat accepted a wrong dim", m.Name())
				}
				if !strings.Contains(r.(string), "input dim") {
					t.Fatalf("%s panic = %v", m.Name(), r)
				}
			}()
			m.ScoresFlat(make([]float64, 6), 2, 3, make([]float64, 2*m.NumClasses()))
		}()
	}
}

func TestArgmaxExported(t *testing.T) {
	if got := Argmax([]float64{0.1, 2.5, -1, 2.5}); got != 1 {
		t.Fatalf("Argmax = %d, want first maximum (1)", got)
	}
	if got := Argmax(nil); got != 0 {
		t.Fatalf("Argmax(nil) = %d, want 0", got)
	}
}

// bayesBatch trains a NaiveBayes at the serving shape (784 features, 10
// classes) and flattens a 64-row batch for it.
func bayesBatch(tb testing.TB) (m *naiveBayes, data []float64, rows int, out []float64) {
	tb.Helper()
	train, test := dataset.MNISTLike(464, 1).Split(400.0/464, 1)
	m = TrainNaiveBayes("bayes", train).(*naiveBayes)
	return m, flatten(test.X), test.Len(), make([]float64, test.Len()*m.NumClasses())
}

func BenchmarkNaiveBayesScoresFlat(b *testing.B) {
	m, data, rows, out := bayesBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoresFlat(data, rows, m.dim, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// TestNaiveBayesScoringTakesNoLog pins the reason the normaliser table
// exists. A logarithm per class per feature is 7,840 math.Log calls a row:
// 80–150 µs on the 2.1 GHz box this was written on (the row cost before
// the table; 13–22 µs after) and no less than ≈ 60 µs on a fast one, so a
// row scored in under 50 µs did not take them. The best of five batches is
// compared, to sit under scheduling noise.
func TestNaiveBayesScoringTakesNoLog(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("timing ceilings are not meaningful under the race detector")
	}
	m, data, rows, out := bayesBatch(t)
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		m.ScoresFlat(data, rows, m.dim, out)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if perRow := best / time.Duration(rows); perRow > 50*time.Microsecond {
		t.Fatalf("NaiveBayes scores a 784×10 row in %v, want ≤ 50µs: is there a math.Log per feature again?", perRow)
	}
}
