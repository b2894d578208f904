package container

// Row-shaped fixtures for the codec tests. The wire has one encoder and
// one decoder per payload — the view forms — so row and prediction
// slices cross it through these conversions.

func viewOf(xs [][]float64) *BatchView {
	v := new(BatchView)
	for _, x := range xs {
		v.AppendRow(x)
	}
	return v
}

func predViewOf(preds []Prediction) *PredictionView {
	v := new(PredictionView)
	for _, p := range preds {
		v.Append(p.Label, p.Scores)
	}
	return v
}

func encodeRows(xs [][]float64) []byte { return AppendBatchView(nil, viewOf(xs)) }

func encodePreds(preds []Prediction) []byte { return AppendPredictionView(nil, predViewOf(preds)) }

func decodeRows(buf []byte) ([][]float64, error) {
	var v BatchView
	if err := DecodeBatchView(buf, &v); err != nil {
		return nil, err
	}
	xs := make([][]float64, v.Rows())
	for i := range xs {
		xs[i] = append([]float64{}, v.Row(i)...)
	}
	return xs, nil
}

func decodePreds(buf []byte) ([]Prediction, error) {
	var v PredictionView
	if err := DecodePredictionView(buf, &v); err != nil {
		return nil, err
	}
	preds := make([]Prediction, v.Count())
	v.scatter(func(i int, p Prediction) { preds[i] = p })
	return preds, nil
}
