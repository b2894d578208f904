// Package frameworks simulates the runtime characteristics of the machine
// learning frameworks the paper serves (Scikit-Learn, Spark, Caffe,
// TensorFlow, HTK).
//
// Clipper's model abstraction layer never inspects a framework — it only
// observes batch latency as a function of batch size, plus the predictions
// themselves. A Profile captures exactly that observable surface: a fixed
// per-batch cost, a per-item cost, a data-parallel speedup factor
// (BLAS/GPU), an optional GPU-style static batch size, optional GC pauses
// (Spark), and noise. Profiles calibrated against Figure 3 of the paper (at
// reduced absolute scale) drive every latency experiment.
package frameworks

import (
	"math/rand"
	"time"
)

// Profile models the latency of evaluating a batch of n queries on a
// framework-hosted model container.
//
// The expected latency is:
//
//	Fixed + PerItem × effective(n) [× pad to StaticBatch if set]
//
// where effective(n) = n × (1 − Parallelism) + Parallelism × ceil(n/lanes)
// with lanes wide enough that fully parallel work is constant-time. This
// reproduces the linear latency-vs-batch-size relationships of Figure 3 and
// the high-fixed-cost/high-parallelism regime that makes delayed batching
// profitable (Figure 5).
type Profile struct {
	// Name identifies the profile, e.g. "sklearn-blas".
	Name string
	// Fixed is the per-batch overhead: RPC deserialization, framework
	// dispatch, GPU transfer setup.
	Fixed time.Duration
	// PerItem is the marginal cost of one query at Parallelism 0.
	PerItem time.Duration
	// Parallelism in [0,1] is the fraction of per-item work that the
	// framework executes data-parallel across the batch (BLAS, SIMD,
	// GPU). At 1.0 a batch costs the same as a single query.
	Parallelism float64
	// StaticBatch, when positive, emulates GPU frameworks with batch
	// size encoded in the model definition: inputs are padded up to the
	// next multiple of StaticBatch and the padded count is what costs
	// time.
	StaticBatch int
	// GCPauseEvery, when positive, injects a GCPause-long stall
	// approximately once per GCPauseEvery batches (Spark-style).
	GCPauseEvery int
	// GCPause is the injected stall duration.
	GCPause time.Duration
	// Jitter is the relative standard deviation of multiplicative
	// latency noise (e.g. 0.05 for 5%).
	Jitter float64
}

// BatchDuration returns the simulated evaluation latency for a batch of n
// queries, including jitter and GC pauses drawn from rng. A nil rng yields
// the deterministic expectation.
func (p Profile) BatchDuration(n int, rng *rand.Rand) time.Duration {
	if n <= 0 {
		return 0
	}
	d := p.expected(n)
	if rng != nil {
		if p.Jitter > 0 {
			factor := 1 + rng.NormFloat64()*p.Jitter
			if factor < 0.1 {
				factor = 0.1
			}
			d = time.Duration(float64(d) * factor)
		}
		if p.GCPauseEvery > 0 && p.GCPause > 0 && rng.Intn(p.GCPauseEvery) == 0 {
			d += p.GCPause
		}
	}
	return d
}

// expected returns the deterministic expected latency for a batch of n.
func (p Profile) expected(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	eff := float64(n)
	if p.StaticBatch > 0 {
		padded := ((n + p.StaticBatch - 1) / p.StaticBatch) * p.StaticBatch
		eff = float64(padded)
	}
	par := p.Parallelism
	if par < 0 {
		par = 0
	}
	if par > 1 {
		par = 1
	}
	// Serial share scales with n; parallel share is constant-time.
	work := eff*(1-par) + par
	return p.Fixed + time.Duration(work*float64(p.PerItem))
}

// MaxBatchWithinSLO returns the largest batch size whose expected latency
// fits within slo, probing up to limit. Returns 0 when even a single query
// exceeds the SLO.
func (p Profile) MaxBatchWithinSLO(slo time.Duration, limit int) int {
	best := 0
	for n := 1; n <= limit; n++ {
		if p.expected(n) <= slo {
			best = n
		} else {
			break
		}
	}
	return best
}

// The calibrated profiles below reproduce the *relative* shapes of the
// paper's Figure 3 containers at ~10× reduced absolute scale so experiment
// sweeps finish quickly. The paper's key ratio — a 241× difference between
// the linear SVM's and kernel SVM's maximum batch size under the 20 ms SLO —
// is preserved by construction (see TestProfileSLORatios).

// SKLearnLinearSVM: very cheap per item, strong BLAS parallelism, moderate
// fixed cost. Figure 3a.
func SKLearnLinearSVM() Profile {
	return Profile{Name: "sklearn-linear-svm", Fixed: 150 * time.Microsecond,
		PerItem: 9 * time.Microsecond, Parallelism: 0.35, Jitter: 0.05}
}

// SKLearnRandomForest: moderate per-item cost, little batch parallelism.
// Figure 3b.
func SKLearnRandomForest() Profile {
	return Profile{Name: "sklearn-random-forest", Fixed: 200 * time.Microsecond,
		PerItem: 12 * time.Microsecond, Parallelism: 0.1, Jitter: 0.05}
}

// SKLearnKernelSVM: dominated by per-item nearest-neighbor kernel
// evaluations; ~300× the linear SVM's per-item cost. Figure 3c.
func SKLearnKernelSVM() Profile {
	return Profile{Name: "sklearn-kernel-svm", Fixed: 300 * time.Microsecond,
		PerItem: 1800 * time.Microsecond, Parallelism: 0.05, Jitter: 0.05}
}

// NoOpContainer: the system-overhead floor. Figure 3d.
func NoOpContainer() Profile {
	return Profile{Name: "noop", Fixed: 50 * time.Microsecond,
		PerItem: 6 * time.Microsecond, Parallelism: 0.2, Jitter: 0.05}
}

// SKLearnLogisticRegression: close to the linear SVM. Figure 3e.
func SKLearnLogisticRegression() Profile {
	return Profile{Name: "sklearn-log-regression", Fixed: 150 * time.Microsecond,
		PerItem: 10 * time.Microsecond, Parallelism: 0.3, Jitter: 0.05}
}

// PySparkLinearSVM: efficient at small batches (fixed cost under one row's,
// little parallel gain) with occasional GC pauses. Figure 3f / Figure 5.
// Its largest batch within a 20 ms SLO is 1,906 (9 + 11.04 × 1,810.75 µs).
func PySparkLinearSVM() Profile {
	return Profile{Name: "pyspark-linear-svm", Fixed: 9 * time.Microsecond,
		PerItem: 11040 * time.Nanosecond, Parallelism: 0.05,
		GCPauseEvery: 400, GCPause: 2 * time.Millisecond, Jitter: 0.05}
}

// SKLearnSVMBLAS: the delayed-batching showcase — high fixed cost with
// near-total BLAS parallelism, so throughput rises steeply with batch size
// (Figure 5's Scikit-Learn SVM).
func SKLearnSVMBLAS() Profile {
	return Profile{Name: "sklearn-svm-blas", Fixed: 350 * time.Microsecond,
		PerItem: 60 * time.Microsecond, Parallelism: 0.97, Jitter: 0.05}
}

// GPUDeepModel emulates a TensorFlow GPU container: large fixed transfer
// cost, tiny per-item cost, near-total parallelism, static batch size. A
// 16-row batch takes 1.04 ms, so in Figure 6's quick run (4 KiB queries)
// three remote replicas offer more than a 1 Gbps uplink carries.
func GPUDeepModel(name string, staticBatch int) Profile {
	return Profile{Name: name, Fixed: 500 * time.Microsecond,
		PerItem: 500 * time.Microsecond, Parallelism: 0.995,
		StaticBatch: staticBatch, Jitter: 0.05}
}

// Figure3Profiles returns the six containers of Figure 3 in panel order.
func Figure3Profiles() []Profile {
	return []Profile{
		SKLearnLinearSVM(),
		SKLearnRandomForest(),
		SKLearnKernelSVM(),
		NoOpContainer(),
		SKLearnLogisticRegression(),
		PySparkLinearSVM(),
	}
}
