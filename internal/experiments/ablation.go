package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"clipper/internal/batching"
	"clipper/internal/cache"
	"clipper/internal/container"
	"clipper/internal/dataset"
	"clipper/internal/selection"
	"clipper/internal/workload"
)

// runAblationAIMD ablates the AIMD backoff factor: the paper chooses a
// "small" 10% backoff (factor 0.9) over TCP's classic 50%. Against a
// linear-latency container the gentler backoff converges to a higher
// steady-state batch cap with less oscillation.
func runAblationAIMD(scale Scale) (Result, error) {
	res := Result{ID: "ablation-aimd", Title: "AIMD backoff factor ablation (DESIGN.md §5)"}

	iters := 3000
	if scale == Quick {
		iters = 1200
	}
	slo := 10 * time.Millisecond
	lat := func(n int, rng *rand.Rand) time.Duration {
		d := time.Millisecond + time.Duration(n)*100*time.Microsecond
		return time.Duration(float64(d) * (1 + rng.NormFloat64()*0.05))
	}
	// Optimal batch: 1ms + n*0.1ms <= 10ms => n ~ 90.
	for _, backoff := range []float64{0.5, 0.75, 0.9} {
		ctrl := batching.NewAIMD(batching.AIMDConfig{SLO: slo, Backoff: backoff})
		rng := rand.New(rand.NewSource(1))
		sum, sumSq, count := 0.0, 0.0, 0
		for i := 0; i < iters; i++ {
			n := ctrl.MaxBatch()
			ctrl.Observe(n, lat(n, rng))
			if i > iters/2 { // steady state only
				f := float64(ctrl.MaxBatch())
				sum += f
				sumSq += f * f
				count++
			}
		}
		mean := sum / float64(count)
		variance := sumSq/float64(count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		res.Lines = append(res.Lines, fmt.Sprintf(
			"backoff=%.2f  steady-state cap mean=%6.1f  stddev=%6.1f  (optimum ~90)",
			backoff, mean, math.Sqrt(variance)))
	}
	return res, nil
}

// runAblationExp3Eta ablates Exp3's learning rate η: convergence speed to
// the best arm vs stability.
func runAblationExp3Eta(scale Scale) (Result, error) {
	res := Result{ID: "ablation-eta", Title: "Exp3 learning-rate ablation (DESIGN.md §5)"}

	maxQueries := 20000
	if scale == Quick {
		maxQueries = 8000
	}
	armErr := []float64{0.5, 0.4, 0.1} // arm 2 is best
	for _, eta := range []float64{0.02, 0.1, 0.5} {
		p := selection.NewExp3(eta)
		s := p.Init(len(armErr))
		rng := rand.New(rand.NewSource(3))
		converged := -1
		for q := 0; q < maxQueries; q++ {
			sel := p.Select(s, rng.Float64())
			m := sel[0]
			label := 0
			if rng.Float64() < armErr[m] {
				label = 1
			}
			preds := make([]*container.Prediction, len(armErr))
			preds[m] = &container.Prediction{Label: label}
			s = p.Observe(s, 0, preds)
			if converged < 0 {
				sum := 0.0
				for _, w := range s.Weights {
					sum += w
				}
				if s.Weights[2]/sum > 0.9 {
					converged = q + 1
				}
			}
		}
		desc := fmt.Sprintf("%d queries", converged)
		if converged < 0 {
			desc = fmt.Sprintf("not within %d queries", maxQueries)
		}
		res.Lines = append(res.Lines, fmt.Sprintf(
			"eta=%.2f  best-arm probability >0.9 after %s", eta, desc))
	}
	return res, nil
}

// runAblationCacheSize ablates the prediction cache capacity under a
// Zipf-skewed content-recommendation workload (§4.2's motivating regime).
func runAblationCacheSize(scale Scale) (Result, error) {
	res := Result{ID: "ablation-cache", Title: "Prediction cache size ablation (DESIGN.md §5)"}

	lookups := 30000
	if scale == Quick {
		lookups = 10000
	}
	ds := dataset.Gaussian(dataset.GaussianConfig{
		Name: "catalog", N: 5000, Dim: 8, NumClasses: 2, Separation: 2, Noise: 1, Seed: 6,
	})
	sampler := workload.NewZipfSampler(ds, 1.3, 7)
	for _, size := range []int{64, 256, 1024, 4096} {
		c := cache.New(size)
		for i := 0; i < lookups; i++ {
			s := sampler.Next()
			key := cache.Key{Model: "m", Version: 1, QueryID: cache.HashQuery(s.X)}
			if _, ok := c.Fetch(key); !ok {
				c.Put(key, container.Prediction{Label: s.Label})
			}
		}
		res.Lines = append(res.Lines, fmt.Sprintf(
			"cache=%5d entries  hit rate=%.3f", size, c.HitRate()))
	}
	return res, nil
}
