package container

import (
	"fmt"
	"testing"
)

func benchRows(rows, dim int) [][]float64 {
	xs := make([][]float64, rows)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64(i*dim + j)
		}
		xs[i] = x
	}
	return xs
}

func benchPreds(n, scores int) []Prediction {
	preds := make([]Prediction, n)
	for i := range preds {
		s := make([]float64, scores)
		for j := range s {
			s[j] = float64(j) / float64(scores)
		}
		preds[i] = Prediction{Label: i, Scores: s}
	}
	return preds
}

// BenchmarkAppendBatchView measures the request encoder reusing one
// buffer (zero allocations in steady state, as Remote's pooled path does).
func BenchmarkAppendBatchView(b *testing.B) {
	v := viewOf(benchRows(64, 128))
	buf := AppendBatchView(nil, v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatchView(buf[:0], v)
	}
}

// BenchmarkDecodeBatchView measures the zero-copy tensor decode into a
// reused view: allocation-free in steady state at any batch size (the
// request decode every Handler performs).
func BenchmarkDecodeBatchView(b *testing.B) {
	for _, rows := range []int{16, 64, 512} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			buf := encodeRows(benchRows(rows, 128))
			var v BatchView
			if err := DecodeBatchView(buf, &v); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeBatchView(buf, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodePredictionView measures the flat response decode into a
// reused view: allocation-free in steady state at any response size (the
// path Remote.PredictViewContext scatters results from).
func BenchmarkDecodePredictionView(b *testing.B) {
	for _, rows := range []int{16, 64, 512} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			buf := encodePreds(benchPreds(rows, 10))
			var v PredictionView
			if err := DecodePredictionView(buf, &v); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodePredictionView(buf, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendPredictionView measures the response encoder reusing
// one buffer (zero allocations in steady state, as the server's leased
// scratch path does).
func BenchmarkAppendPredictionView(b *testing.B) {
	v := predViewOf(benchPreds(64, 10))
	buf := AppendPredictionView(nil, v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendPredictionView(buf[:0], v)
	}
}
