package frameworks

import (
	"math/rand"
	"sync"
	"time"

	"clipper/internal/container"
	"clipper/internal/kick"
	"clipper/internal/models"
)

// SimPredictor wraps a real Go model with a framework latency Profile. Its
// PredictBatch computes genuine predictions and then blocks until the
// profile's simulated batch duration has elapsed (inclusive of the real
// compute time), so the container exhibits the target framework's
// latency-vs-batch-size curve while still returning meaningful outputs.
type SimPredictor struct {
	model   models.Model
	profile Profile
	info    container.Info

	mu  sync.Mutex
	rng *rand.Rand
}

var _ container.ViewPredictor = (*SimPredictor)(nil)

// NewSimPredictor wraps model with profile. inputDim 0 disables input-shape
// advertising.
func NewSimPredictor(model models.Model, profile Profile, inputDim int, seed int64) *SimPredictor {
	return &SimPredictor{
		model:   model,
		profile: profile,
		info: container.Info{
			Name:       model.Name(),
			Version:    1,
			InputDim:   inputDim,
			NumClasses: model.NumClasses(),
		},
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Info implements container.Predictor.
func (p *SimPredictor) Info() container.Info { return p.info }

// PredictBatch implements container.Predictor.
func (p *SimPredictor) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	start := time.Now()
	p.mu.Lock()
	target := p.profile.BatchDuration(len(xs), p.rng)
	p.mu.Unlock()

	out := make([]container.Prediction, len(xs))
	for i, x := range xs {
		out[i].Label, out[i].Scores = p.predictRow(x)
	}
	// Block for the remainder of the simulated duration, if the real
	// compute did not already exceed it.
	kick.SleepUntil(start.Add(target))
	return out, nil
}

// predictRow evaluates one row exactly once, as a one-row ScoresFlat: a
// model's label is the Argmax of its scores, so Predict is not run.
func (p *SimPredictor) predictRow(x []float64) (int, []float64) {
	scores := models.Scores(p.model, x)
	return models.Argmax(scores), scores
}

// PredictView implements container.ViewPredictor: the same predictions
// (labels and scores, bit for bit) as PredictBatch, written straight into
// the flat response view. A uniform-width batch is tensor-native end to
// end: one Size call shapes the pooled view, the model's ScoresFlat fills
// its flat score tensor in place, and labels are argmaxed off the rows —
// no per-query structures on either side. Only a ragged view, which has no
// tensor to hand ScoresFlat, takes the per-row path through Append.
func (p *SimPredictor) PredictView(v container.BatchView, out *container.PredictionView) error {
	start := time.Now()
	rows := v.Rows()
	p.mu.Lock()
	target := p.profile.BatchDuration(rows, p.rng)
	p.mu.Unlock()

	if dim := v.Dim(); rows > 0 && dim > 0 {
		nc := p.info.NumClasses
		scores := out.Size(rows, nc)
		p.model.ScoresFlat(v.Data, rows, dim, scores)
		for r := 0; r < rows; r++ {
			out.Labels[r] = models.Argmax(scores[r*nc : (r+1)*nc])
		}
	} else {
		out.Reset()
		for r := 0; r < rows; r++ {
			out.Append(p.predictRow(v.Row(r)))
		}
	}
	kick.SleepUntil(start.Add(target))
	return nil
}
