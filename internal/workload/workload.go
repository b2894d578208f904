// Package workload generates the query streams and failure scenarios the
// paper's experiments run: open-loop Poisson and bursty arrivals,
// closed-loop worker pools, popularity-skewed query sampling, and
// injectable model degradation (Figure 8).
package workload

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clipper/internal/container"
	"clipper/internal/dataset"
	"clipper/internal/metrics"
)

// Sample is one workload query: the input vector and its true label.
type Sample struct {
	X     []float64
	Label int
	// Group is the example's dataset group (e.g. dialect), -1 if none.
	Group int
}

// sampleAt returns ds's i-th example as a Sample.
func sampleAt(ds *dataset.Dataset, i int) Sample {
	out := Sample{X: ds.X[i], Label: ds.Y[i], Group: -1}
	if ds.Group != nil {
		out.Group = ds.Group[i]
	}
	return out
}

// uniformSampler draws examples uniformly at random with replacement.
type uniformSampler struct {
	ds *dataset.Dataset

	mu  sync.Mutex
	rng *rand.Rand
}

// newUniformSampler returns a uniform sampler over ds.
func newUniformSampler(ds *dataset.Dataset, seed int64) *uniformSampler {
	return &uniformSampler{ds: ds, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next query. It is safe for concurrent use.
func (s *uniformSampler) Next() Sample {
	s.mu.Lock()
	i := s.rng.Intn(s.ds.Len())
	s.mu.Unlock()
	return sampleAt(s.ds, i)
}

// ZipfSampler draws examples with Zipfian popularity: a few "hot" queries
// dominate, which is the regime where the prediction cache pays off
// (content recommendation in §4.2). Rank selection delegates to the
// shared Zipf sampler; the permutation spreads popularity across the
// dataset so "hot" examples are not simply the lowest-indexed ones.
type ZipfSampler struct {
	ds   *dataset.Dataset
	zipf *Zipf
	perm []int // immutable after construction
}

// NewZipfSampler returns a sampler where the i-th most popular example is
// drawn with probability ∝ 1/(i+1)^s. s must be > 1.
func NewZipfSampler(ds *dataset.Dataset, s float64, seed int64) *ZipfSampler {
	// One rng feeds both the permutation and the rank stream (the
	// permutation is drawn first), keeping seeded runs byte-identical to
	// the pre-shared-sampler sequence the experiments were recorded with.
	rng := rand.New(rand.NewSource(seed))
	zipf := newZipfRand(ds.Len(), s, rng)
	return &ZipfSampler{
		ds:   ds,
		zipf: zipf,
		perm: rng.Perm(ds.Len()),
	}
}

// Next returns the next query. It is safe for concurrent use.
func (z *ZipfSampler) Next() Sample {
	return sampleAt(z.ds, z.perm[z.zipf.Rank()])
}

// SequentialSampler replays the dataset in order, wrapping around. It
// drives the deterministic 20K-query run of Figure 8.
type SequentialSampler struct {
	ds *dataset.Dataset

	mu   sync.Mutex
	next int
}

// NewSequentialSampler returns a sampler replaying ds in order.
func NewSequentialSampler(ds *dataset.Dataset) *SequentialSampler {
	return &SequentialSampler{ds: ds}
}

// Next returns the next query. It is safe for concurrent use.
func (s *SequentialSampler) Next() Sample {
	s.mu.Lock()
	i := s.next
	s.next = (s.next + 1) % s.ds.Len()
	s.mu.Unlock()
	return sampleAt(s.ds, i)
}

// runClosedLoop runs workers concurrent clients, each issuing queries
// back-to-back until the context is done or each has issued perWorker
// queries (0 = until ctx done). fn is called once per query.
func runClosedLoop(ctx context.Context, workers, perWorker int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; perWorker == 0 || i < perWorker; i++ {
				select {
				case <-ctx.Done():
					return
				default:
				}
				fn(w)
			}
		}(w)
	}
	wg.Wait()
}

// MeasureClosedLoop runs workers clients issuing call back-to-back for
// warm and then measure, the paper's closed-loop methodology. It returns
// the latencies of the calls that succeed and complete inside the measure
// window, so the window's throughput is Count()/measure.Seconds(). call
// receives a context cancelled once the window ends, and the worker's
// index. MeasureClosedLoop returns once every call has returned.
func MeasureClosedLoop(workers int, warm, measure time.Duration, call func(ctx context.Context, worker int) error) *metrics.Histogram {
	lat := metrics.NewHistogram()
	var measuring atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runClosedLoop(ctx, workers, 0, func(w int) {
			start := time.Now()
			if call(ctx, w) != nil {
				return
			}
			if measuring.Load() {
				lat.ObserveDuration(time.Since(start))
			}
		})
	}()

	time.Sleep(warm)
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	cancel()
	<-done
	return lat
}

// RandomInputs returns n seeded standard-normal vectors of dimension dim,
// drawn row by row from one source.
func RandomInputs(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// Degradable wraps a model container and can be switched into a degraded
// mode where it predicts uniformly random labels — the "severe model
// degradation" of Figure 8 (e.g. feature corruption upstream of the
// model).
type Degradable struct {
	inner container.Predictor

	mu       sync.Mutex
	degraded bool
	rng      *rand.Rand
	classes  int
}

// NewDegradable wraps inner. classes is the label cardinality used when
// degraded (0 takes it from inner's Info).
func NewDegradable(inner container.Predictor, classes int, seed int64) *Degradable {
	if classes <= 0 {
		classes = inner.Info().NumClasses
	}
	if classes <= 0 {
		classes = 2
	}
	return &Degradable{inner: inner, rng: rand.New(rand.NewSource(seed)), classes: classes}
}

// SetDegraded switches degradation on or off.
func (d *Degradable) SetDegraded(v bool) {
	d.mu.Lock()
	d.degraded = v
	d.mu.Unlock()
}

// Degraded reports the current mode.
func (d *Degradable) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// Info implements container.Predictor.
func (d *Degradable) Info() container.Info { return d.inner.Info() }

// PredictBatch implements container.Predictor.
func (d *Degradable) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	d.mu.Lock()
	degraded := d.degraded
	var labels []int
	if degraded {
		labels = make([]int, len(xs))
		for i := range labels {
			labels[i] = d.rng.Intn(d.classes)
		}
	}
	d.mu.Unlock()
	if !degraded {
		return d.inner.PredictBatch(xs)
	}
	out := make([]container.Prediction, len(xs))
	for i := range out {
		out[i] = container.Prediction{Label: labels[i]}
	}
	return out, nil
}
