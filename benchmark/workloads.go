package main

import (
	"time"

	"clipper/internal/frameworks"
)

// Sizes shared by every workload. They are part of the benchmark's
// definition: changing one re-baselines every number.
const (
	numConns  = 2    // stream connections of the generator, one pacing goroutine each
	poolSize  = 8000 // distinct inputs a run draws from
	trainSize = 1200 // examples the models are trained on
	inputDim  = 784  // dataset.MNISTLike

	sloNs = int64(20 * time.Millisecond) // paper default, every workload
)

// Simulated container service times, at paper scale: capacity and tails
// are set by Clipper's batching/scheduling decisions and by timers, not
// by a CPU race with whatever else runs on the box.
var (
	profFast = frameworks.Profile{Name: "bench-fast", Fixed: 2 * time.Millisecond,
		PerItem: 30 * time.Microsecond, Parallelism: 0.3, Jitter: 0.05}
	profSlow = frameworks.Profile{Name: "bench-slow", Fixed: 500 * time.Microsecond,
		PerItem: 400 * time.Microsecond, Parallelism: 0.2, Jitter: 0.05}
	profStraggler = frameworks.Profile{Name: "bench-straggler", Fixed: 2 * time.Millisecond,
		PerItem: time.Millisecond, Parallelism: 0.2, Jitter: 0.1,
		GCPauseEvery: 40, GCPause: 30 * time.Millisecond}
)

// modelSpec is one deployed model: what is trained, how its container
// behaves, and how many replicas serve it.
type modelSpec struct {
	kind     string // svm | logreg | bayes | tree
	profile  frameworks.Profile
	replicas int
}

// workload is one traffic mix against one node configuration.
type workload struct {
	name string
	why  string

	models    []modelSpec
	inFlight  int  // batching.QueueConfig.InFlight (0 = default)
	cacheSize int  // prediction cache entries
	ensemble  bool // Exp4 over all models with a 20 ms straggler deadline; else static:0
	contexts  int  // selection contexts (0 = the global context)

	zipfS        float64 // input popularity skew; 0 = uniform over the pool
	feedbackFrac float64 // share of ops that are feedback

	window int     // closed loop: outstanding ops per connection
	loRate float64 // open loop, ops/s over both connections
	hiRate float64 // open loop near the knee
	warmup int     // warm-up requests (a count, not a time)
}

// The rates were set once from max_qps measured on the builder's 2-core
// box (lo ≈ 0.3–0.45 × and hi ≈ 0.4–0.65 × of it) and are constants from
// then on; see README.md.
var workloads = []*workload{
	{
		name:      "zipf_cache",
		why:       "Zipf(1.1) keys over the stream adapter: most work is adapter framing, gateway and cache reads; misses keep p99 timer-anchored",
		models:    []modelSpec{{"svm", profFast, 1}},
		cacheSize: 1024, zipfS: 1.1,
		window: 16, loRate: 9000, hiRate: 12500, warmup: 6000,
	},
	{
		name:     "scan_batch",
		why:      "uniform keys defeat the cache: work is in batching, JSQ over 2 replicas, rpc and container wire, with cache inserts and evictions beside few reads",
		models:   []modelSpec{{"svm", profSlow, 2}},
		inFlight: 4, cacheSize: 1024,
		window: 256, loRate: 7000, hiRate: 11500, warmup: 8000,
	},
	{
		name: "ensemble_feedback",
		why:  "Exp4 over 4 models with a straggler and 20% feedback: the only workload where selection, statestore and gather-under-deadline do real work",
		models: []modelSpec{
			{"svm", profFast, 1}, {"logreg", profFast, 1},
			{"bayes", profFast, 1}, {"tree", profStraggler, 1},
		},
		cacheSize: 4096, ensemble: true, contexts: 256,
		feedbackFrac: 0.2,
		window:       16, loRate: 1500, hiRate: 2250, warmup: 1500,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one row of BENCHMARK.json's end_to_end list.
type metricDef struct {
	name   string
	unit   string
	better string // lower | higher
	bound  float64
}

// endToEnd lists the user-visible metrics, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"max_qps", "ops/s", "higher", 0.20},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"hi_p99_ms", "ms", "lower", 0.25},
	{"hi_slo_ok_frac", "frac", "higher", 0.05},
}
