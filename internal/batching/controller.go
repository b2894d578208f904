// Package batching implements Clipper's adaptive query batching (paper
// §4.3): per-replica queues that aggregate point queries into mini-batches
// sized to maximize throughput subject to a latency service level
// objective.
//
// Two adaptive controllers choose the maximum batch size: an
// additive-increase/multiplicative-decrease (AIMD) scheme — Clipper's
// default — and a quantile-regression scheme that fits the P99
// latency-vs-batch-size line and inverts it at the SLO. NewFixed and
// no-batching controllers serve as baselines. Delayed batching (§4.3.2)
// optionally holds a non-full batch briefly so bursty workloads can fill
// it, analogous to Nagle's algorithm.
//
// Queue is the layer's workhorse: a per-replica pipeline whose collector
// assembles controller-sized batches and keeps up to QueueConfig.InFlight
// of them concurrently inside the replica. The queue's contract is that
// every submitted request receives exactly one Result — a prediction or
// an error — under concurrent submits, mid-flight Close, failed
// connections, and panicking containers. Every dispatched batch feeds its
// (size, latency) observation back to the controller.
package batching

import (
	"sync"
	"time"

	"clipper/internal/quantile"
)

// Controller chooses the maximum batch size for one model-container
// replica. Implementations must be safe for concurrent use.
type Controller interface {
	// Name identifies the strategy in reports, e.g. "aimd".
	Name() string
	// MaxBatch returns the current batch size cap (always >= 1).
	MaxBatch() int
	// Observe reports a dispatched batch's size and measured latency.
	Observe(batch int, latency time.Duration)
}

// The adaptive controllers' constants: properties of the control laws, not
// of a deployment, so not configuration.
const (
	// capCeiling bounds every adaptive cap. The paper's SLO-bound optima
	// are tens to hundreds of queries (Figure 3); 4096 only stops a cap
	// that runs away while no batch ever fills it.
	capCeiling = 4096
	// qrTau is the latency quantile quantileReg bounds: the paper's P99.
	qrTau = 0.99
	// qrWindow is the observations the quantile line is fitted over: the
	// last 512 batches, about five of them above the 99th percentile.
	qrWindow = 512
	// qrRefitEvery is the observations between refits; in between the cap
	// probes upward like AIMD, so the window gains larger batch sizes.
	qrRefitEvery = 32
)

// aimd is Clipper's default adaptive controller: additively grow the batch
// cap while probed latencies stay under the SLO, and back off
// multiplicatively by a small factor (paper: 10%) when a batch overruns it.
// The cap starts at one query and grows only as batches earn it.
type aimd struct {
	slo      time.Duration
	additive int
	backoff  float64

	mu  sync.Mutex
	cap float64
}

// AIMDConfig parameterizes NewAIMD. Zero values select paper defaults.
type AIMDConfig struct {
	// SLO is the batch-latency objective. Required.
	SLO time.Duration
	// Additive is the per-probe increase; 0 selects 1.
	Additive int
	// Backoff is the multiplicative decrease factor in (0,1); 0 selects
	// 0.9 (the paper's "small" 10% backoff, contrasted with TCP's 0.5).
	Backoff float64
}

// NewAIMD returns an AIMD controller for the given SLO.
func NewAIMD(cfg AIMDConfig) Controller {
	if cfg.Additive <= 0 {
		cfg.Additive = 1
	}
	if cfg.Backoff <= 0 || cfg.Backoff >= 1 {
		cfg.Backoff = 0.9
	}
	return &aimd{
		slo:      cfg.SLO,
		additive: cfg.Additive,
		backoff:  cfg.Backoff,
		cap:      1,
	}
}

// Name implements Controller.
func (a *aimd) Name() string { return "aimd" }

// MaxBatch implements Controller.
func (a *aimd) MaxBatch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.cap)
}

// Observe implements Controller. A batch over the SLO triggers the
// multiplicative backoff; a full-cap batch under the SLO probes upward.
// Under-cap batches under the SLO carry no information about the cap and
// are ignored.
func (a *aimd) Observe(batch int, latency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if latency > a.slo {
		a.cap *= a.backoff
		if a.cap < 1 {
			a.cap = 1
		}
		return
	}
	if batch >= int(a.cap) {
		a.cap = min(a.cap+float64(a.additive), capCeiling)
	}
}

// quantileReg sizes batches by fitting the tau-quantile of latency as a
// linear function of batch size over a sliding window of observations and
// inverting the fit at the SLO (paper §4.3.1's alternative strategy). Like
// AIMD, the cap starts at one query.
type quantileReg struct {
	slo time.Duration

	mu       sync.Mutex
	sizes    [qrWindow]float64
	lats     [qrWindow]float64
	next     int
	full     bool
	sinceFit int
	cap      int
}

// QuantileRegConfig parameterizes NewQuantileReg.
type QuantileRegConfig struct {
	// SLO is the batch-latency objective. Required.
	SLO time.Duration
}

// NewQuantileReg returns a quantile-regression controller.
func NewQuantileReg(cfg QuantileRegConfig) Controller {
	return &quantileReg{slo: cfg.SLO, cap: 1}
}

// Name implements Controller.
func (q *quantileReg) Name() string { return "quantile-regression" }

// MaxBatch implements Controller.
func (q *quantileReg) MaxBatch() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cap
}

// Observe implements Controller.
func (q *quantileReg) Observe(batch int, latency time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sizes[q.next] = float64(batch)
	q.lats[q.next] = latency.Seconds()
	q.next++
	if q.next == qrWindow {
		q.next = 0
		q.full = true
	}
	q.sinceFit++
	if q.sinceFit < qrRefitEvery {
		// Between refits, probe upward like AIMD so the window gains
		// coverage of larger batch sizes.
		if latency <= q.slo && batch >= q.cap && q.cap < capCeiling {
			q.cap++
		} else if latency > q.slo {
			q.cap = int(float64(q.cap) * 0.9)
			if q.cap < 1 {
				q.cap = 1
			}
		}
		return
	}
	q.sinceFit = 0
	n := q.next
	if q.full {
		n = qrWindow
	}
	line := quantile.Fit(q.sizes[:n], q.lats[:n], qrTau)
	est := line.InverseAt(q.slo.Seconds(), 1, capCeiling)
	q.cap = int(est)
	if q.cap < 1 {
		q.cap = 1
	}
}

// fixed is a constant-cap controller. Cap 1 is the "no batching" baseline
// of Figure 4; larger caps emulate TensorFlow Serving's hand-tuned static
// batch sizes (§6).
type fixed struct {
	cap  int
	name string
}

// NewFixed returns a controller pinned at cap (min 1).
func NewFixed(cap int) Controller {
	if cap < 1 {
		cap = 1
	}
	name := "fixed"
	if cap == 1 {
		name = "no-batching"
	}
	return &fixed{cap: cap, name: name}
}

// Name implements Controller.
func (f *fixed) Name() string { return f.name }

// MaxBatch implements Controller.
func (f *fixed) MaxBatch() int { return f.cap }

// Observe implements Controller (no adaptation).
func (f *fixed) Observe(int, time.Duration) {}
