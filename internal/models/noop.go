package models

// NoOp is a model that performs no computation and always predicts the
// same class, scoring it one-hot. The paper uses a "No-Op Container"
// (Figure 3d) to measure the pure overhead of the model-container and RPC
// machinery; this is its equivalent.
type NoOp struct {
	name    string
	classes int
	label   int
}

// NewNoOp returns a no-op model that always predicts label out of classes.
func NewNoOp(name string, classes, label int) *NoOp {
	if classes < 1 {
		classes = 1
	}
	if label < 0 || label >= classes {
		label = 0
	}
	return &NoOp{name: name, classes: classes, label: label}
}

// Name implements Model.
func (m *NoOp) Name() string { return m.name }

// NumClasses implements Model.
func (m *NoOp) NumClasses() int { return m.classes }

// Predict implements Model.
func (m *NoOp) Predict(x []float64) int { return label(m, x) }

// ScoresFlat implements Model: a one-hot row on the label for every row,
// whatever the input.
func (m *NoOp) ScoresFlat(data []float64, rows, dim int, out []float64) {
	out = out[:rows*m.classes]
	clear(out)
	for r := 0; r < rows; r++ {
		out[r*m.classes+m.label] = 1
	}
}
