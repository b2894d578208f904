// Package dataset generates the synthetic benchmark datasets used by the
// Clipper reproduction.
//
// The paper evaluates on MNIST, CIFAR-10, ImageNet and the TIMIT speech
// corpus (Table 1). Those corpora are not available offline, so this package
// produces parametric Gaussian-mixture datasets with matched shapes
// (dimensionality, class counts) and controllable class separability. The
// selection-layer experiments only require that different models achieve
// genuinely different accuracies on the same task, which these datasets
// provide; the abstraction-layer experiments only require inputs of the
// right size, which they also provide.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a labeled collection of dense feature vectors.
type Dataset struct {
	// Name identifies the dataset in reports, e.g. "mnist-like".
	Name string
	// Dim is the feature dimensionality of every row of X.
	Dim int
	// NumClasses is the number of distinct labels; labels are 0..NumClasses-1.
	NumClasses int
	// X holds one feature vector per example.
	X [][]float64
	// Y holds the label for each example.
	Y []int
	// Group optionally holds a per-example group id (e.g. the speaker's
	// dialect for the speech dataset). Nil when the dataset has no groups.
	Group []int
	// NumGroups is the number of distinct group ids when Group is non-nil.
	NumGroups int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Split partitions the dataset into train and test subsets. frac is the
// fraction assigned to train, and the split is a deterministic shuffle
// driven by seed.
func (d *Dataset) Split(frac float64, seed int64) (train, test *Dataset) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := d.Len()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	cut := int(frac * float64(n))
	train = d.subset(perm[:cut], d.Name+"/train")
	test = d.subset(perm[cut:], d.Name+"/test")
	return train, test
}

// Subsample returns a deterministic random subset of up to n examples.
func (d *Dataset) Subsample(n int, seed int64) *Dataset {
	if n >= d.Len() {
		return d.subset(identityPerm(d.Len()), d.Name)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(d.Len())
	return d.subset(perm[:n], d.Name)
}

// FilterGroup returns the subset of examples whose group id equals g.
// It panics if the dataset has no groups.
func (d *Dataset) FilterGroup(g int) *Dataset {
	if d.Group == nil {
		panic("dataset: FilterGroup on ungrouped dataset")
	}
	var idx []int
	for i, gi := range d.Group {
		if gi == g {
			idx = append(idx, i)
		}
	}
	return d.subset(idx, fmt.Sprintf("%s/group%d", d.Name, g))
}

func (d *Dataset) subset(idx []int, name string) *Dataset {
	out := &Dataset{
		Name:       name,
		Dim:        d.Dim,
		NumClasses: d.NumClasses,
		NumGroups:  d.NumGroups,
		X:          make([][]float64, len(idx)),
		Y:          make([]int, len(idx)),
	}
	if d.Group != nil {
		out.Group = make([]int, len(idx))
	}
	for j, i := range idx {
		out.X[j] = d.X[i]
		out.Y[j] = d.Y[i]
		if d.Group != nil {
			out.Group[j] = d.Group[i]
		}
	}
	return out
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// GaussianConfig parameterizes a Gaussian-mixture classification dataset.
type GaussianConfig struct {
	Name       string
	N          int     // number of examples
	Dim        int     // feature dimensionality
	NumClasses int     // number of class clusters
	Separation float64 // distance scale between class means; larger = easier
	Noise      float64 // per-feature Gaussian noise sigma
	LabelNoise float64 // fraction of labels flipped uniformly at random
	Seed       int64
}

// Gaussian generates a dataset of NumClasses Gaussian clusters. Class means
// are random unit-norm directions scaled by Separation; examples are the
// class mean plus i.i.d. noise; a LabelNoise fraction of labels is
// corrupted. The irreducible error grows as Noise/Separation grows, which is
// how the benchmarks tune task difficulty.
func Gaussian(cfg GaussianConfig) *Dataset {
	if cfg.N <= 0 || cfg.Dim <= 0 || cfg.NumClasses <= 1 {
		panic(fmt.Sprintf("dataset: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	means := make([][]float64, cfg.NumClasses)
	for c := range means {
		m := make([]float64, cfg.Dim)
		norm := 0.0
		for i := range m {
			m[i] = rng.NormFloat64()
			norm += m[i] * m[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i := range m {
			m[i] = m[i] / norm * cfg.Separation
		}
		means[c] = m
	}
	d := &Dataset{
		Name:       cfg.Name,
		Dim:        cfg.Dim,
		NumClasses: cfg.NumClasses,
		X:          make([][]float64, cfg.N),
		Y:          make([]int, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		c := rng.Intn(cfg.NumClasses)
		x := make([]float64, cfg.Dim)
		for j := range x {
			x[j] = means[c][j] + rng.NormFloat64()*cfg.Noise
		}
		y := c
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			y = rng.Intn(cfg.NumClasses)
		}
		d.X[i] = x
		d.Y[i] = y
	}
	return d
}

// The concrete benchmark datasets below mirror Table 1 of the paper at
// reduced scale. Sizes are scaled down so training from-scratch models stays
// tractable on one machine; MNIST keeps the paper's input size exactly, and
// speech is reduced to an acoustic feature window.

// MNISTLike returns a 784-dimensional, 10-class dataset (28x28 images).
func MNISTLike(n int, seed int64) *Dataset {
	return Gaussian(GaussianConfig{
		Name: "mnist-like", N: n, Dim: 784, NumClasses: 10,
		Separation: 4.0, Noise: 1.0, LabelNoise: 0.02, Seed: seed,
	})
}

// SpeechConfig parameterizes the TIMIT-like dialect dataset.
type SpeechConfig struct {
	N           int // total utterance windows
	NumDialects int // TIMIT has 8 dialect regions
	NumSpeakers int // TIMIT has 630 speakers
	Dim         int // acoustic feature dimensionality
	NumPhonemes int // TIMIT benchmarks use 39 collapsed phoneme classes
	Seed        int64
}

// SpeechLike generates a dialect-grouped phoneme-classification dataset.
// Each dialect shifts the class means, so a model trained on one dialect
// transfers imperfectly to another — the structure that the paper's
// personalization experiment (Figure 10) exploits.
func SpeechLike(cfg SpeechConfig) *Dataset {
	if cfg.N <= 0 || cfg.NumDialects <= 0 || cfg.Dim <= 0 || cfg.NumPhonemes <= 1 {
		panic(fmt.Sprintf("dataset: invalid speech config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Base phoneme means shared by all dialects. The scale is chosen so
	// the task is learnable but not trivial: phoneme classification has
	// genuine irreducible error, as TIMIT does.
	base := make([][]float64, cfg.NumPhonemes)
	for c := range base {
		m := make([]float64, cfg.Dim)
		for i := range m {
			m[i] = rng.NormFloat64() * 0.28
		}
		base[c] = m
	}
	// Per-dialect structure: a global shift plus a per-(dialect,phoneme)
	// interaction of magnitude comparable to the phoneme separation
	// itself. The interaction is what makes a dialect-specific model beat
	// a dialect-oblivious one (a pure shift could be absorbed by a single
	// linear boundary), mirroring Figure 10 of the paper.
	shift := make([][]float64, cfg.NumDialects)
	interaction := make([][][]float64, cfg.NumDialects)
	for g := range shift {
		s := make([]float64, cfg.Dim)
		for i := range s {
			s[i] = rng.NormFloat64() * 0.2
		}
		shift[g] = s
		interaction[g] = make([][]float64, cfg.NumPhonemes)
		for c := range interaction[g] {
			v := make([]float64, cfg.Dim)
			for i := range v {
				v[i] = rng.NormFloat64() * 0.26
			}
			interaction[g][c] = v
		}
	}
	speakersPerDialect := cfg.NumSpeakers / cfg.NumDialects
	if speakersPerDialect == 0 {
		speakersPerDialect = 1
	}
	d := &Dataset{
		Name:       "speech-like",
		Dim:        cfg.Dim,
		NumClasses: cfg.NumPhonemes,
		NumGroups:  cfg.NumDialects,
		X:          make([][]float64, cfg.N),
		Y:          make([]int, cfg.N),
		Group:      make([]int, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		g := rng.Intn(cfg.NumDialects)
		c := rng.Intn(cfg.NumPhonemes)
		x := make([]float64, cfg.Dim)
		for j := range x {
			x[j] = base[c][j] + shift[g][j] + interaction[g][c][j] + rng.NormFloat64()*1.0
		}
		d.X[i] = x
		d.Y[i] = c
		d.Group[i] = g
	}
	return d
}

// TableRow describes one dataset for the Table 1 reproduction.
type TableRow struct {
	Name     string
	Type     string
	Size     int
	Features string
	Labels   int
}

// Table1 returns the dataset inventory matching the paper's Table 1, with
// this reproduction's scaled sizes.
func Table1() []TableRow {
	return []TableRow{
		{Name: "MNIST-like", Type: "Image", Size: 70000, Features: "28x28", Labels: 10},
		{Name: "CIFAR-like", Type: "Image", Size: 60000, Features: "32x32x3", Labels: 10},
		{Name: "ImageNet-like", Type: "Image", Size: 1260000, Features: "299x299x3 (gen: 4096)", Labels: 1000},
		{Name: "Speech-like", Type: "Sound", Size: 6300, Features: "5 sec. (gen: 200)", Labels: 39},
	}
}
