package container

import (
	"context"
	"fmt"
)

// The paper ships language bindings (C++, Java, Python) so that "the model
// container implementations for most of the models in this paper only
// required a few lines of code" (§4.4). NewFunc is the Go rendering: wrap any
// batch function as a deployable Predictor in one call.

// funcPredictor adapts a plain batch-prediction function to the Predictor
// interface.
type funcPredictor struct {
	info Info
	fn   func(xs [][]float64) ([]Prediction, error)
}

// NewFunc wraps fn as a Predictor with the given identity.
func NewFunc(info Info, fn func(xs [][]float64) ([]Prediction, error)) Predictor {
	return &funcPredictor{info: info, fn: fn}
}

// NewLabelFunc wraps a per-query labeling function — the smallest possible
// model container.
func NewLabelFunc(info Info, label func(x []float64) int) Predictor {
	return NewFunc(info, func(xs [][]float64) ([]Prediction, error) {
		out := make([]Prediction, len(xs))
		for i, x := range xs {
			out[i] = Prediction{Label: label(x)}
		}
		return out, nil
	})
}

// funcView adapts a flat view-prediction function to the ViewPredictor
// interface — the tensor-native SDK shape: the function reads the batch
// straight off the flat tensor and writes results into the pooled
// response view.
type funcView struct {
	info Info
	fn   func(v BatchView, out *PredictionView) error
}

// NewFuncView wraps fn as a ViewPredictor with the given identity.
func NewFuncView(info Info, fn func(v BatchView, out *PredictionView) error) ViewPredictor {
	return &funcView{info: info, fn: fn}
}

// Info implements Predictor.
func (f *funcView) Info() Info { return f.info }

// PredictView implements ViewPredictor.
func (f *funcView) PredictView(v BatchView, out *PredictionView) error {
	return f.fn(v, out)
}

// PredictBatch implements Predictor for callers that hold rows: the same
// function, reached through the flat views.
func (f *funcView) PredictBatch(xs [][]float64) ([]Prediction, error) {
	return viaView(xs, func(v *BatchView, deliver func(int, Prediction)) error {
		return Local{f}.PredictViewContext(context.Background(), v, deliver)
	})
}

// Info implements Predictor.
func (f *funcPredictor) Info() Info { return f.info }

// PredictBatch implements Predictor.
func (f *funcPredictor) PredictBatch(xs [][]float64) ([]Prediction, error) {
	preds, err := f.fn(xs)
	if err != nil {
		return nil, err
	}
	if err := validate(preds, len(xs)); err != nil {
		return nil, fmt.Errorf("container %s: %w", f.info.Name, err)
	}
	return preds, nil
}
