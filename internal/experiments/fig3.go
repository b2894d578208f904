package experiments

import (
	"fmt"
	"time"

	"clipper/internal/container"
	"clipper/internal/frameworks"
	"clipper/internal/models"
)

// fig3SLO is the latency objective all batching experiments target, as in
// the paper.
const fig3SLO = 20 * time.Millisecond

// runFig3 reproduces Figure 3: the latency-vs-batch-size profile of each
// model container, measured end to end through the container RPC path.
// The paper's headline observation — the maximum batch size within the
// 20 ms SLO differs by >100× between the linear SVM and the kernel SVM —
// is reported explicitly.
func runFig3(scale Scale) (Result, error) {
	res := Result{ID: "fig3", Title: "Model Container Latency Profiles (paper Figure 3)"}

	trials := 3
	fastSizes := []int{1, 100, 400, 800, 1600}
	slowSizes := []int{1, 2, 4, 6, 8}
	if scale == Quick {
		trials = 1
		fastSizes = []int{1, 100, 400}
		slowSizes = []int{1, 4}
	}

	sloBatches := map[string]int{}
	for _, profile := range frameworks.Figure3Profiles() {
		sizes := fastSizes
		if profile.PerItem >= time.Millisecond {
			sizes = slowSizes
		}
		pred := frameworks.NewSimPredictor(models.NewNoOp(profile.Name, 10, 0), profile, 0, 1)
		remote, stop, err := container.Loopback(pred)
		if err != nil {
			return Result{}, err
		}

		res.Lines = append(res.Lines, fmt.Sprintf("container %s:", profile.Name))
		for _, n := range sizes {
			batch := make([][]float64, n)
			for i := range batch {
				batch[i] = []float64{float64(i)}
			}
			var total time.Duration
			for t := 0; t < trials; t++ {
				start := time.Now()
				if _, err := remote.PredictBatch(batch); err != nil {
					stop()
					return Result{}, err
				}
				total += time.Since(start)
			}
			mean := total / time.Duration(trials)
			res.Lines = append(res.Lines,
				fmt.Sprintf("  batch=%4d  latency=%8.3fms", n, float64(mean.Microseconds())/1000))
		}
		stop()
		maxBatch := profile.MaxBatchWithinSLO(fig3SLO, 100000)
		sloBatches[profile.Name] = maxBatch
		res.Lines = append(res.Lines,
			fmt.Sprintf("  max batch within %v SLO: %d", fig3SLO, maxBatch))
	}

	lin := sloBatches["sklearn-linear-svm"]
	ker := sloBatches["sklearn-kernel-svm"]
	if ker > 0 {
		res.Lines = append(res.Lines, fmt.Sprintf(
			"linear-SVM/kernel-SVM max-batch ratio: %dx (paper: 241x)", lin/ker))
	}
	return res, nil
}
