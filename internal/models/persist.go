package models

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model persistence: a deployed model container loads a trained model from
// a file rather than retraining (the role the paper's serialized
// Scikit-Learn / Caffe / TensorFlow model artifacts play). Save writes a
// tagged gob stream; Load reconstructs the concrete model type.

// persistKind tags the concrete model type in the stream.
type persistKind string

// Persistable model kinds.
const (
	kindLinear persistKind = "linear"
	kindKernel persistKind = "kernel"
	kindBayes  persistKind = "naive-bayes"
	kindMLP    persistKind = "mlp"
	kindForest persistKind = "random-forest"
	kindTree   persistKind = "decision-tree"
	kindKNN    persistKind = "knn"
	kindNoOp   persistKind = "noop"
	kindGBDT   persistKind = "gbdt"
)

// persistHeader opens every stream.
type persistHeader struct {
	Magic string
	Kind  persistKind
}

const persistMagic = "CLIPPER-MODEL-V1"

// wire structs with exported fields for gob.

type wireLinear struct {
	Name    string
	Weights [][]float64
	Bias    []float64
	Dim     int
}

type wireKernel struct {
	Name      string
	Landmarks [][]float64
	Gamma     float64
	Linear    wireLinear
	Dim       int
}

type wireBayes struct {
	Name     string
	Mean     [][]float64
	Variance [][]float64
	LogPrior []float64
	Dim      int
}

type wireMLP struct {
	Name    string
	Weights [][][]float64
	Biases  [][]float64
	Dim     int
	Classes int
}

// wireNode flattens a tree node; children reference slice indices (-1 for
// leaves).
type wireNode struct {
	Feature     int
	Threshold   float64
	Left, Right int
	ClassCounts []float64
}

type wireTree struct {
	Name       string
	Nodes      []wireNode
	NumClasses int
	Dim        int
}

type wireForest struct {
	Name       string
	Trees      []wireTree
	NumClasses int
	Dim        int
}

type wireKNN struct {
	Name       string
	Xs         [][]float64
	Ys         []int
	K          int
	NumClasses int
	Dim        int
}

type wireNoOp struct {
	Name    string
	Classes int
	Label   int
}

// Save serializes a trained model. It returns an error for model types it
// does not know how to persist.
func Save(w io.Writer, m Model) error {
	enc := gob.NewEncoder(w)
	write := func(kind persistKind, payload interface{}) error {
		if err := enc.Encode(persistHeader{Magic: persistMagic, Kind: kind}); err != nil {
			return err
		}
		return enc.Encode(payload)
	}
	switch v := m.(type) {
	case *LinearModel:
		return write(kindLinear, linearToWire(v))
	case *KernelMachine:
		return write(kindKernel, wireKernel{
			Name: v.name, Landmarks: v.landmarks, Gamma: v.gamma,
			Linear: linearToWire(v.linear), Dim: v.dim,
		})
	case *NaiveBayes:
		return write(kindBayes, wireBayes{
			Name: v.name, Mean: v.mean, Variance: v.variance,
			LogPrior: v.logPrior, Dim: v.dim,
		})
	case *MLP:
		return write(kindMLP, wireMLP{
			Name: v.name, Weights: v.weights, Biases: v.biases,
			Dim: v.dim, Classes: v.classes,
		})
	case *DecisionTree:
		return write(kindTree, treeToWire(v))
	case *RandomForest:
		wf := wireForest{Name: v.name, NumClasses: v.numClasses, Dim: v.dim}
		for _, t := range v.trees {
			wf.Trees = append(wf.Trees, treeToWire(t))
		}
		return write(kindForest, wf)
	case *KNN:
		return write(kindKNN, wireKNN{
			Name: v.name, Xs: v.xs, Ys: v.ys, K: v.k,
			NumClasses: v.numClasses, Dim: v.dim,
		})
	case *NoOp:
		return write(kindNoOp, wireNoOp{Name: v.name, Classes: v.classes, Label: v.label})
	case *GBDT:
		return write(kindGBDT, gbdtToWire(v))
	default:
		return fmt.Errorf("models: cannot persist %T", m)
	}
}

// Load deserializes a model written by Save.
func Load(r io.Reader) (Model, error) {
	dec := gob.NewDecoder(r)
	var hdr persistHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("models: reading header: %w", err)
	}
	if hdr.Magic != persistMagic {
		return nil, fmt.Errorf("models: bad magic %q", hdr.Magic)
	}
	switch hdr.Kind {
	case kindLinear:
		var w wireLinear
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return linearFromWire(w), nil
	case kindKernel:
		var w wireKernel
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return &KernelMachine{
			name: w.Name, landmarks: w.Landmarks, gamma: w.Gamma,
			linear: linearFromWire(w.Linear), dim: w.Dim,
		}, nil
	case kindBayes:
		var w wireBayes
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return newNaiveBayes(w.Name, w.Mean, w.Variance, w.LogPrior, w.Dim), nil
	case kindMLP:
		var w wireMLP
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return &MLP{
			name: w.Name, weights: w.Weights, biases: w.Biases,
			dim: w.Dim, classes: w.Classes,
		}, nil
	case kindTree:
		var w wireTree
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return treeFromWire(w)
	case kindForest:
		var w wireForest
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		f := &RandomForest{name: w.Name, numClasses: w.NumClasses, dim: w.Dim}
		for _, wt := range w.Trees {
			t, err := treeFromWire(wt)
			if err != nil {
				return nil, err
			}
			f.trees = append(f.trees, t)
		}
		return f, nil
	case kindKNN:
		var w wireKNN
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return &KNN{
			name: w.Name, xs: w.Xs, ys: w.Ys, k: w.K,
			numClasses: w.NumClasses, dim: w.Dim,
		}, nil
	case kindNoOp:
		var w wireNoOp
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return &NoOp{name: w.Name, classes: w.Classes, label: w.Label}, nil
	case kindGBDT:
		var w wireGBDT
		if err := dec.Decode(&w); err != nil {
			return nil, err
		}
		return gbdtFromWire(w)
	default:
		return nil, fmt.Errorf("models: unknown model kind %q", hdr.Kind)
	}
}

func linearToWire(m *LinearModel) wireLinear {
	return wireLinear{Name: m.name, Weights: m.weights, Bias: m.bias, Dim: m.dim}
}

func linearFromWire(w wireLinear) *LinearModel {
	return &LinearModel{name: w.Name, weights: w.Weights, bias: w.Bias, dim: w.Dim}
}

// treeToWire flattens the node graph breadth-first.
func treeToWire(t *DecisionTree) wireTree {
	wt := wireTree{Name: t.name, NumClasses: t.numClasses, Dim: t.dim}
	var flatten func(n *treeNode) int
	flatten = func(n *treeNode) int {
		idx := len(wt.Nodes)
		wt.Nodes = append(wt.Nodes, wireNode{
			Feature: n.feature, Threshold: n.threshold,
			Left: -1, Right: -1, ClassCounts: n.classCounts,
		})
		if !n.isLeaf() {
			wt.Nodes[idx].Left = flatten(n.left)
			wt.Nodes[idx].Right = flatten(n.right)
		}
		return idx
	}
	if t.root != nil {
		flatten(t.root)
	}
	return wt
}

func treeFromWire(w wireTree) (*DecisionTree, error) {
	if len(w.Nodes) == 0 {
		return nil, fmt.Errorf("models: tree %q has no nodes", w.Name)
	}
	nodes := make([]*treeNode, len(w.Nodes))
	for i, wn := range w.Nodes {
		nodes[i] = &treeNode{
			feature:     wn.Feature,
			threshold:   wn.Threshold,
			classCounts: wn.ClassCounts,
		}
	}
	for i, wn := range w.Nodes {
		if wn.Left >= 0 {
			if wn.Left >= len(nodes) || wn.Right < 0 || wn.Right >= len(nodes) {
				return nil, fmt.Errorf("models: tree %q has corrupt child indices", w.Name)
			}
			nodes[i].left = nodes[wn.Left]
			nodes[i].right = nodes[wn.Right]
		}
	}
	return &DecisionTree{name: w.Name, root: nodes[0], numClasses: w.NumClasses, dim: w.Dim}, nil
}
