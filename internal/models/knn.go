package models

import "clipper/internal/dataset"

// knn is a k-nearest-neighbors classifier over the full training set.
// Like the kernel machine, its per-query cost scales with the stored
// example count, making it one of the expensive containers in the latency
// profile experiments.
type knn struct {
	name       string
	xs         [][]float64
	ys         []int
	k          int
	numClasses int
	dim        int
}

// TrainKNN "trains" a k-NN model by retaining (a reference to) the training
// set. k <= 0 selects 5.
func TrainKNN(name string, ds *dataset.Dataset, k int) Model {
	if k <= 0 {
		k = 5
	}
	if k > ds.Len() {
		k = ds.Len()
	}
	return &knn{
		name:       name,
		xs:         ds.X,
		ys:         ds.Y,
		k:          k,
		numClasses: ds.NumClasses,
		dim:        ds.Dim,
	}
}

// Name implements Model.
func (m *knn) Name() string { return m.name }

// NumClasses implements Model.
func (m *knn) NumClasses() int { return m.numClasses }

// Predict implements Model.
func (m *knn) Predict(x []float64) int { return label(m, x) }

// ScoresFlat implements Model: the neighbor vote share per class for every
// row of a flat row-major tensor, reusing one max-heap of the k nearest
// across rows. The heap operations are inlined (container/heap's
// compare/swap order, which the tests hold it to) because that package's
// interface{} boxing costs an allocation per pushed neighbor.
func (m *knn) ScoresFlat(data []float64, rows, dim int, out []float64) {
	checkFlat(m.name, rows, dim, m.dim, data)
	h := make([]distEntry, 0, m.k)
	for r := 0; r < rows; r++ {
		x := data[r*dim : (r+1)*dim]
		h = h[:0]
		for i, xi := range m.xs {
			d := sqDist(x, xi)
			if len(h) < m.k {
				// heap.Push without boxing: append then sift up.
				h = append(h, distEntry{d: d, y: m.ys[i]})
				for j := len(h) - 1; j > 0; {
					p := (j - 1) / 2
					if h[j].d <= h[p].d {
						break
					}
					h[j], h[p] = h[p], h[j]
					j = p
				}
			} else if d < h[0].d {
				// heap.Fix(&h, 0) without boxing: replace root, sift down.
				h[0] = distEntry{d: d, y: m.ys[i]}
				for j := 0; ; {
					big := 2*j + 1
					if big >= len(h) {
						break
					}
					if rgt := big + 1; rgt < len(h) && h[rgt].d > h[big].d {
						big = rgt
					}
					if h[big].d <= h[j].d {
						break
					}
					h[j], h[big] = h[big], h[j]
					j = big
				}
			}
		}
		s := out[r*m.numClasses : (r+1)*m.numClasses]
		for i := range s {
			s[i] = 0
		}
		for _, e := range h {
			s[e.y]++
		}
		if len(h) > 0 {
			for i := range s {
				s[i] /= float64(len(h))
			}
		}
	}
}

type distEntry struct {
	d float64
	y int
}
