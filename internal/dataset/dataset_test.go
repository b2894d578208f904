package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianShapes(t *testing.T) {
	d := Gaussian(GaussianConfig{Name: "g", N: 200, Dim: 16, NumClasses: 4, Separation: 3, Noise: 1, Seed: 1})
	if d.Len() != 200 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Dim != 16 || d.NumClasses != 4 {
		t.Fatalf("Dim=%d NumClasses=%d", d.Dim, d.NumClasses)
	}
	for i, x := range d.X {
		if len(x) != 16 {
			t.Fatalf("row %d has dim %d", i, len(x))
		}
		if d.Y[i] < 0 || d.Y[i] >= 4 {
			t.Fatalf("label %d out of range", d.Y[i])
		}
	}
}

func TestGaussianDeterministic(t *testing.T) {
	a := Gaussian(GaussianConfig{Name: "g", N: 50, Dim: 8, NumClasses: 3, Separation: 3, Noise: 1, Seed: 7})
	b := Gaussian(GaussianConfig{Name: "g", N: 50, Dim: 8, NumClasses: 3, Separation: 3, Noise: 1, Seed: 7})
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ for same seed")
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("features differ for same seed")
			}
		}
	}
}

func TestGaussianSeparability(t *testing.T) {
	// With high separation and low noise a nearest-class-mean rule should
	// be near perfect; verify the generator actually produces separable
	// classes (sanity for every downstream accuracy experiment).
	d := Gaussian(GaussianConfig{Name: "g", N: 500, Dim: 32, NumClasses: 5, Separation: 8, Noise: 0.5, Seed: 3})
	means := make([][]float64, 5)
	counts := make([]int, 5)
	for c := range means {
		means[c] = make([]float64, d.Dim)
	}
	for i, x := range d.X {
		c := d.Y[i]
		counts[c]++
		for j, v := range x {
			means[c][j] += v
		}
	}
	for c := range means {
		if counts[c] == 0 {
			continue
		}
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, x := range d.X {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			dist := 0.0
			for j := range x {
				diff := x[j] - means[c][j]
				dist += diff * diff
			}
			if dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == d.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(d.Len())
	if acc < 0.95 {
		t.Fatalf("nearest-mean accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestGaussianInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid config")
		}
	}()
	Gaussian(GaussianConfig{N: 0})
}

func TestSplit(t *testing.T) {
	d := Gaussian(GaussianConfig{Name: "g", N: 100, Dim: 4, NumClasses: 2, Separation: 2, Noise: 1, Seed: 1})
	tr, te := d.Split(0.7, 42)
	if tr.Len() != 70 || te.Len() != 30 {
		t.Fatalf("split sizes %d/%d", tr.Len(), te.Len())
	}
	// No example should appear in both halves (check by pointer identity,
	// since subsets share row slices).
	seen := map[*float64]bool{}
	for _, x := range tr.X {
		seen[&x[0]] = true
	}
	for _, x := range te.X {
		if seen[&x[0]] {
			t.Fatal("train and test overlap")
		}
	}
}

func TestSplitEdgeFractions(t *testing.T) {
	d := Gaussian(GaussianConfig{Name: "g", N: 10, Dim: 2, NumClasses: 2, Separation: 2, Noise: 1, Seed: 1})
	tr, te := d.Split(-0.5, 1)
	if tr.Len() != 0 || te.Len() != 10 {
		t.Fatalf("negative frac: %d/%d", tr.Len(), te.Len())
	}
	tr, te = d.Split(2.0, 1)
	if tr.Len() != 10 || te.Len() != 0 {
		t.Fatalf("frac>1: %d/%d", tr.Len(), te.Len())
	}
}

func TestSubsample(t *testing.T) {
	d := Gaussian(GaussianConfig{Name: "g", N: 100, Dim: 2, NumClasses: 2, Separation: 2, Noise: 1, Seed: 1})
	s := d.Subsample(10, 3)
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	s = d.Subsample(1000, 3)
	if s.Len() != 100 {
		t.Fatalf("oversized subsample Len = %d", s.Len())
	}
}

func TestSpeechLikeGroups(t *testing.T) {
	d := SpeechLike(SpeechConfig{N: 6300, NumDialects: 8, NumSpeakers: 630, Dim: 200, NumPhonemes: 39, Seed: 5})
	if d.Len() != 6300 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.NumGroups != 8 || d.Group == nil {
		t.Fatal("speech dataset must be grouped by dialect")
	}
	counts := make([]int, 8)
	for _, g := range d.Group {
		if g < 0 || g >= 8 {
			t.Fatalf("dialect %d out of range", g)
		}
		counts[g]++
	}
	for g, c := range counts {
		if c == 0 {
			t.Fatalf("dialect %d has no examples", g)
		}
	}
	if d.NumClasses != 39 {
		t.Fatalf("NumClasses = %d, want 39", d.NumClasses)
	}
}

func TestFilterGroup(t *testing.T) {
	d := SpeechLike(SpeechConfig{N: 800, NumDialects: 4, NumSpeakers: 40, Dim: 16, NumPhonemes: 5, Seed: 2})
	g1 := d.FilterGroup(1)
	if g1.Len() == 0 {
		t.Fatal("empty group subset")
	}
	for _, g := range g1.Group {
		if g != 1 {
			t.Fatal("FilterGroup leaked other groups")
		}
	}
	total := 0
	for g := 0; g < 4; g++ {
		total += d.FilterGroup(g).Len()
	}
	if total != d.Len() {
		t.Fatalf("groups partition %d of %d examples", total, d.Len())
	}
}

func TestFilterGroupPanicsUngrouped(t *testing.T) {
	d := Gaussian(GaussianConfig{Name: "g", N: 10, Dim: 2, NumClasses: 2, Separation: 2, Noise: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.FilterGroup(0)
}

func TestBenchmarkDatasetShapes(t *testing.T) {
	m := MNISTLike(100, 1)
	if m.Dim != 784 || m.NumClasses != 10 {
		t.Fatalf("mnist shape %d/%d", m.Dim, m.NumClasses)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 has %d rows, want 4", len(rows))
	}
	if rows[0].Name != "MNIST-like" || rows[3].Labels != 39 {
		t.Fatalf("unexpected rows %+v", rows)
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Property: for any valid fraction, train and test partition the
	// dataset (sizes sum, labels preserved per index set).
	f := func(frac float64, seed int64) bool {
		frac = math.Abs(math.Mod(frac, 1))
		d := Gaussian(GaussianConfig{Name: "g", N: 60, Dim: 3, NumClasses: 2, Separation: 2, Noise: 1, Seed: 4})
		tr, te := d.Split(frac, seed)
		return tr.Len()+te.Len() == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
