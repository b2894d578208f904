package frameworks

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"clipper/internal/container"
	"clipper/internal/models"
)

// SimPredictor wraps a real Go model with a framework latency Profile. Its
// PredictBatch computes genuine predictions and then blocks until the
// profile's simulated batch duration has elapsed (inclusive of the real
// compute time), so the container exhibits the target framework's
// latency-vs-batch-size curve while still returning meaningful outputs.
type SimPredictor struct {
	model   models.Model
	scorer  models.Scorer // nil when the model has no scores
	profile Profile
	info    container.Info

	mu  sync.Mutex
	rng *rand.Rand
}

var _ container.ViewPredictor = (*SimPredictor)(nil)

// NewSimPredictor wraps model with profile. inputDim 0 disables input-shape
// advertising.
func NewSimPredictor(model models.Model, profile Profile, inputDim int, seed int64) *SimPredictor {
	s, _ := model.(models.Scorer)
	return &SimPredictor{
		model:   model,
		scorer:  s,
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

// Profile returns the wrapped latency profile.
func (p *SimPredictor) Profile() Profile { return p.profile }

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
	SleepUntil(start.Add(target))
	return out, nil
}

// predictRow evaluates one row exactly once: a Scorer's label is the
// Argmax of its scores (models.Scorer's contract), so Predict is not run.
func (p *SimPredictor) predictRow(x []float64) (int, []float64) {
	if p.scorer == nil {
		return p.model.Predict(x), nil
	}
	scores := p.scorer.Scores(x)
	return models.Argmax(scores), scores
}

// PredictView implements container.ViewPredictor: the same predictions
// (labels and scores, bit for bit) as PredictBatch, written straight into
// the flat response view. Every scoring model in package models is a
// FlatScorer, so a uniform-width batch is tensor-native end to end: one
// Size call shapes the pooled view, ScoresFlat fills its flat score tensor
// in place, and labels are argmaxed off the rows — no per-query structures
// on either side. Only ragged views and non-scoring models take the
// per-row path through Append.
func (p *SimPredictor) PredictView(v container.BatchView, out *container.PredictionView) error {
	start := time.Now()
	rows := v.Rows()
	p.mu.Lock()
	target := p.profile.BatchDuration(rows, p.rng)
	p.mu.Unlock()

	fs, flat := p.scorer.(models.FlatScorer)
	if dim := v.Dim(); flat && rows > 0 && dim > 0 {
		nc := p.info.NumClasses
		scores := out.Size(rows, nc)
		fs.ScoresFlat(v.Data, rows, dim, scores)
		for r := 0; r < rows; r++ {
			out.Labels[r] = models.Argmax(scores[r*nc : (r+1)*nc])
		}
	} else {
		out.Reset()
		for r := 0; r < rows; r++ {
			out.Append(p.predictRow(v.Row(r)))
		}
	}
	SleepUntil(start.Add(target))
	return nil
}

// SleepUntil blocks until the deadline with sub-millisecond precision:
// coarse time.Sleep for the bulk, then a bounded spin for the tail. The
// spin tail is capped so concurrent containers do not monopolize CPUs.
func SleepUntil(deadline time.Time) {
	const spinWindow = 100 * time.Microsecond
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		if remaining > spinWindow {
			time.Sleep(remaining - spinWindow)
			continue
		}
		break
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Sleep blocks for approximately d with sub-millisecond precision.
func Sleep(d time.Duration) { SleepUntil(time.Now().Add(d)) }
