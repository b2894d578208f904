package container

import "context"

// rowsView is the one adapter between the two predictor shapes: it
// serves PredictView for a row-slice Predictor by materialising the rows,
// calling PredictBatch, and appending the outputs into the flat response.
type rowsView struct{ Predictor }

// PredictView implements ViewPredictor. The rows are copies in one shared
// backing array (two allocations per batch at any size), so PredictBatch
// owns its input as it always has and may retain it; the pooled view is
// not aliased.
func (a rowsView) PredictView(v BatchView, out *PredictionView) error {
	xs := make([][]float64, v.Rows())
	var backing []float64
	if len(v.Data) > 0 {
		backing = append(make([]float64, 0, len(v.Data)), v.Data...)
	}
	for i := range xs {
		lo, hi := v.offsets[i], v.offsets[i+1]
		xs[i] = backing[lo:hi:hi]
	}
	preds, err := a.PredictBatch(xs)
	if err != nil {
		return err
	}
	if err := Validate(preds, len(xs)); err != nil {
		return err
	}
	out.Reset()
	for _, p := range preds {
		out.Append(p.Label, p.Scores)
	}
	return nil
}

// asView returns p in the view shape: p itself when it implements
// ViewPredictor, otherwise p behind the rows adapter. Handler and Local
// call it once, at construction, so no per-request path branches on the
// predictor's shape.
func asView(p Predictor) ViewPredictor {
	if vp, ok := p.(ViewPredictor); ok {
		return vp
	}
	return rowsView{p}
}

// predictInto runs vp over v into out and enforces the container
// contract: exactly one prediction per input row.
func predictInto(vp ViewPredictor, v *BatchView, out *PredictionView) error {
	out.Reset()
	if err := vp.PredictView(*v, out); err != nil {
		return err
	}
	return checkCount(out.Count(), v.Rows())
}

// scatter hands each prediction in pv to deliver, in row order. The
// pooled view's score tensor is about to be reused, so scores are copied
// out into one batch-shared backing array the receivers own; label-only
// responses allocate nothing.
func (v *PredictionView) scatter(deliver func(i int, p Prediction)) {
	var backing []float64
	if len(v.Scores) > 0 {
		backing = append(make([]float64, 0, len(v.Scores)), v.Scores...)
	}
	for i, label := range v.Labels {
		p := Prediction{Label: label}
		if lo, hi := v.offsets[i], v.offsets[i+1]; lo < hi {
			p.Scores = backing[lo:hi:hi]
		}
		deliver(i, p)
	}
}

// viaView serves a row-slice batch through a flat call: the rows are
// gathered into a pooled view and the predictions collected in row order.
func viaView(xs [][]float64, call func(v *BatchView, deliver func(int, Prediction)) error) ([]Prediction, error) {
	v := GetBatchView()
	defer PutBatchView(v)
	for _, x := range xs {
		v.AppendRow(x)
	}
	preds := make([]Prediction, len(xs))
	if err := call(v, func(i int, p Prediction) { preds[i] = p }); err != nil {
		return nil, err
	}
	return preds, nil
}

// Local is the in-process twin of Remote: it serves the batching queue's
// flat call by running the predictor in the caller's goroutine — no
// codec, no wire — with Remote's delivery contract.
type Local struct{ vp ViewPredictor }

// NewLocal wraps an in-process predictor of either shape.
func NewLocal(p Predictor) Local { return Local{vp: asView(p)} }

// PredictViewContext runs the predictor over v and scatters the results:
// deliver is invoked exactly once per row, in row order, if and only if
// the call succeeds. An in-process call cannot be abandoned midway, so
// ctx is not consulted.
func (l Local) PredictViewContext(_ context.Context, v *BatchView, deliver func(i int, p Prediction)) error {
	out := getPredView()
	err := predictInto(l.vp, v, out)
	if err == nil {
		out.scatter(deliver)
	}
	putPredView(out)
	return err
}
