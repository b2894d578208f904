package models

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"clipper/internal/dataset"
)

// treeScoreDigests trains a tree, a forest and a GBDT on seeded data whose
// features are rounded to steps of 0.5, so every split search sorts runs of
// tied values, and returns one FNV-1a digest per model over the bits of
// every score it gives the test split.
func treeScoreDigests(seed int64) []string {
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "ties", N: 600, Dim: 8, NumClasses: 3, Separation: 2, Noise: 1, Seed: seed,
	})
	for _, x := range ds.X {
		for j := range x {
			x[j] = math.Round(2*x[j]) / 2
		}
	}
	train, test := ds.Split(0.7, seed)
	var out []string
	var word [8]byte
	for _, m := range []Model{
		TrainDecisionTree("tree", train, TreeConfig{MaxDepth: 6, Seed: seed}),
		TrainRandomForest("forest", train, TreeConfig{Trees: 5, Seed: seed}),
		TrainGBDT("gbdt", train, GBDTConfig{Rounds: 10, Seed: seed}),
	} {
		h := fnv.New64a()
		for _, x := range test.X {
			for _, v := range Scores(m, x) {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		out = append(out, fmt.Sprintf("%s %016x", m.Name(), h.Sum64()))
	}
	return out
}

// TestTreeScoresPinned pins the tree learners' scores to the bit. The
// split search sorts feature values and splits only between distinct
// ones, so how a sort orders tied values moves neither a split nor a
// score. The digests are amd64's: Go may fuse multiply-adds elsewhere,
// which moves the bits.
func TestTreeScoresPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests pin amd64's score bits")
	}
	want := map[int64][]string{
		1: {"tree 721f9b215bb9fa9c", "forest b4f400fe0f46ed2e", "gbdt 51914aef14e82613"},
		2: {"tree ef64e6b2e1643d1e", "forest 19850459d93b28c1", "gbdt 093a637244cf4f17"},
		3: {"tree 182c37d825736a88", "forest dbfb46463c853e95", "gbdt fa2ac9b887062fab"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		got := treeScoreDigests(seed)
		for i := range got {
			if got[i] != want[seed][i] {
				t.Errorf("seed %d: %s, want %s", seed, got[i], want[seed][i])
			}
		}
	}
}

// mlpWeightDigests trains the five Table 2 stand-ins on a small seeded split
// and returns one FNV-1a digest per network over the bits of every weight
// and bias, layer by layer.
func mlpWeightDigests() []string {
	train, _ := dataset.Gaussian(dataset.GaussianConfig{
		Name: "deep", N: 300, Dim: 16, NumClasses: 4, Separation: 2, Noise: 1.5, Seed: 5,
	}).Split(0.8, 5)
	var out []string
	var word [8]byte
	put := func(h hash.Hash64, vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	for _, s := range Table2() {
		m := s.Train(train).(*mlp)
		h := fnv.New64a()
		for l := range m.weights {
			for _, w := range m.weights[l] {
				put(h, w)
			}
			put(h, m.biases[l])
		}
		out = append(out, fmt.Sprintf("%s %016x", m.Name(), h.Sum64()))
	}
	return out
}

// TestMLPWeightsPinned pins the SGD trainer to the bit on networks of one
// and two hidden layers, so a change to its arithmetic or its order (the
// ReLU mask, how a mini-batch's gradients accumulate) shows even where the
// scores it leads to still round alike. amd64 only, as above.
func TestMLPWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests pin amd64's weight bits")
	}
	want := []string{
		"Caffe/VGG 40eb338c9f3e6d8d",
		"Caffe/GoogLeNet a12b5a252c5fadb4",
		"Caffe/ResNet 5fcd999daa767bda",
		"Caffe/CaffeNet 303cd2dce0a561d7",
		"TensorFlow/Inception 2c6bbda39890c7e7",
	}
	for i, got := range mlpWeightDigests() {
		if got != want[i] {
			t.Errorf("%s, want %s", got, want[i])
		}
	}
}
