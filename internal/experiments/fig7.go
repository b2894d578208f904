package experiments

import (
	"fmt"

	"clipper/internal/dataset"
	"clipper/internal/models"
)

// runFig7 reproduces Figure 7: ensemble prediction accuracy on the CIFAR
// and ImageNet benchmarks. Five models (Table 2 stand-ins) are combined by
// a uniform-weight linear ensemble; queries are additionally split by
// ensemble agreement (4-agree / 5-agree) into confident and unsure groups,
// showing that agreement-based confidence isolates a low-error confident
// set — the basis of the robust-predictions mechanism (§5.2.1).
func runFig7(scale Scale) (Result, error) {
	res := Result{ID: "fig7", Title: "Ensemble Prediction Accuracy (paper Figure 7)"}

	n := 2000
	if scale == Full {
		n = 8000
	}
	benchmarks := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"cifar", cifarStandin(n)},
		{"imagenet", imagenetStandin(n)},
	}

	for _, b := range benchmarks {
		train, test := b.ds.Split(0.8, 5)
		ens := models.TrainEnsemble(train)
		stats := ensembleStats(ens, test)
		res.Lines = append(res.Lines, fmt.Sprintf("%s benchmark (top-1 error):", b.name))
		res.Lines = append(res.Lines, fmt.Sprintf("  single model (best): %.4f", stats.BestSingleErr))
		res.Lines = append(res.Lines, fmt.Sprintf("  ensemble:            %.4f", stats.EnsembleErr))
		res.Lines = append(res.Lines, fmt.Sprintf(
			"  4-agree:  confident err=%.4f (%.0f%% of queries)  unsure err=%.4f (%.0f%%)",
			stats.Agree4ConfErr, 100*stats.Agree4Frac, stats.Agree4UnsureErr, 100*(1-stats.Agree4Frac)))
		res.Lines = append(res.Lines, fmt.Sprintf(
			"  5-agree:  confident err=%.4f (%.0f%% of queries)  unsure err=%.4f (%.0f%%)",
			stats.Agree5ConfErr, 100*stats.Agree5Frac, stats.Agree5UnsureErr, 100*(1-stats.Agree5Frac)))
	}
	return res, nil
}

// ensembleSummary summarizes one Figure 7 panel.
type ensembleSummary struct {
	BestSingleErr   float64
	EnsembleErr     float64
	Agree4ConfErr   float64
	Agree4UnsureErr float64
	Agree4Frac      float64
	Agree5ConfErr   float64
	Agree5UnsureErr float64
	Agree5Frac      float64
}

// ensembleStats evaluates the ensemble, the best member, and the
// agreement-split error rates on test.
func ensembleStats(ens []models.Model, test *dataset.Dataset) ensembleSummary {
	var stats ensembleSummary

	bestErr := 1.0
	for _, m := range ens {
		if e := models.ErrorRate(m, test.X, test.Y); e < bestErr {
			bestErr = e
		}
	}
	stats.BestSingleErr = bestErr

	type counts struct{ total, wrong int }
	var all, conf4, uns4, conf5, uns5 counts
	for i, x := range test.X {
		votes := map[int]int{}
		for _, m := range ens {
			votes[m.Predict(x)]++
		}
		final, best := -1, 0
		for label, c := range votes {
			if c > best || (c == best && label < final) {
				final, best = label, c
			}
		}
		wrong := final != test.Y[i]
		all.total++
		if wrong {
			all.wrong++
		}
		bump := func(c *counts) {
			c.total++
			if wrong {
				c.wrong++
			}
		}
		if best >= 4 {
			bump(&conf4)
		} else {
			bump(&uns4)
		}
		if best >= 5 {
			bump(&conf5)
		} else {
			bump(&uns5)
		}
	}
	rate := func(c counts) float64 {
		if c.total == 0 {
			return 0
		}
		return float64(c.wrong) / float64(c.total)
	}
	stats.EnsembleErr = rate(all)
	stats.Agree4ConfErr = rate(conf4)
	stats.Agree4UnsureErr = rate(uns4)
	stats.Agree4Frac = float64(conf4.total) / float64(all.total)
	stats.Agree5ConfErr = rate(conf5)
	stats.Agree5UnsureErr = rate(uns5)
	stats.Agree5Frac = float64(conf5.total) / float64(all.total)
	return stats
}
